// Package dist distributes campaign execution across processes. A
// coordinator grants the cells of a campaign grid's flat index, one at a
// time, to workers — the same binary, run with a worker flag — which
// execute them and stream back each cell's per-seed results plus the
// cell's per-metric Welford states. The coordinator reassembles the exact
// result a single-process campaign.Grid.Run would have produced, gives a
// cell to another worker when its holder is lost or keeps it past the
// deadline derived from the grid's own cell times, and — given a
// checkpoint and its journal — makes every delivered cell durable before it
// counts, so a long campaign survives preemption and resumes where it
// stopped.
//
// Transport is any ordered byte stream: a TCP socket for remote workers,
// or the child's stdin/stdout pipes for locally spawned ones. Messages
// are length-delimited JSON records (see Conn), so a connection severed
// mid-record is detected as truncation rather than silently parsed.
package dist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"ripple/internal/stats"
)

// ProtoVersion is bumped whenever the message schema changes
// incompatibly; coordinator and worker refuse to pair across versions.
// Version 2 added the panic/stack fields on error messages.
const ProtoVersion = 2

// Message types. The worker opens with hello, then loops: ready → (lease
// | grid_done | shutdown), and answers a lease with one cell message per
// cell in it. The coordinator's leases hold one cell.
const (
	MsgHello    = "hello"     // worker → coordinator, once per connection
	MsgReady    = "ready"     // worker → coordinator: give me cells for Grid
	MsgLease    = "lease"     // coordinator → worker: run Cells
	MsgCell     = "cell"      // worker → coordinator: one completed cell
	MsgGridDone = "grid_done" // coordinator → worker: grid complete, advance
	MsgShutdown = "shutdown"  // coordinator → worker: campaign over, exit
	MsgError    = "error"     // worker → coordinator: cell execution failed
)

// Message is the single wire record; Type selects which fields are
// meaningful.
type Message struct {
	Type   string `json:"type"`
	Proto  int    `json:"proto,omitempty"`  // hello
	Worker string `json:"worker,omitempty"` // hello: worker name for logs
	Grid   string `json:"grid,omitempty"`   // ready/lease/cell: grid fingerprint
	Lease  int    `json:"lease,omitempty"`  // lease/cell: lease id (the cell's index)
	Cells  []int  `json:"cells,omitempty"`  // lease: flat cell indices to run
	Cell   int    `json:"cell,omitempty"`   // cell: flat cell index
	// Payload carries the cell's per-seed results, exactly as the worker
	// marshalled them; the coordinator stores and forwards the raw bytes.
	Payload json.RawMessage `json:"payload,omitempty"`
	// Stats carries the cell's per-metric Welford states for checkpoint
	// summaries and cross-worker merging.
	Stats map[string]stats.State `json:"stats,omitempty"`
	Err   string                 `json:"err,omitempty"` // error
	// Panic marks an error message as a recovered cell panic; Stack is the
	// worker-side goroutine stack at the point of the panic.
	Panic bool   `json:"panic,omitempty"` // error
	Stack string `json:"stack,omitempty"` // error
}

// maxFrame bounds a single record; a frame length beyond this is treated
// as a corrupt stream, not an allocation request.
const maxFrame = 1 << 30

// frameSink is where writeFrame writes: a bufio.Writer or a bytes.Buffer,
// whose free space holds the length line without an allocation.
type frameSink interface {
	io.Writer
	AvailableBuffer() []byte
}

// writeFrame writes one frame to w, the wire's or the journal's: the
// record's length in ASCII decimal, '\n', then rec — JSON and the '\n' that
// ends the frame, as a json.Encoder writes a record.
func writeFrame(w frameSink, rec []byte) error {
	_, err := w.Write(append(strconv.AppendInt(w.AvailableBuffer(), int64(len(rec)-1), 10), '\n'))
	if err == nil {
		_, err = w.Write(rec)
	}
	return err
}

// readFrame reads one frame from r and returns its record's JSON, which
// lies in buf until the next read, and the frame's length. A stream that
// ends before the frame returns bare io.EOF, one that ends inside it an
// error wrapping io.ErrUnexpectedEOF. The body grows in buf as it arrives:
// a corrupt length fails as truncation, not as an allocation of its size.
func readFrame(r *bufio.Reader, buf *bytes.Buffer) (rec []byte, size int64, err error) {
	line, err := r.ReadString('\n')
	if err != nil {
		if err == io.EOF {
			if line == "" {
				return nil, 0, io.EOF
			}
			err = io.ErrUnexpectedEOF
		}
		return nil, 0, fmt.Errorf("truncated frame header: %w", err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(line))
	if err != nil || n < 0 || n > maxFrame {
		return nil, 0, fmt.Errorf("bad frame length %q", strings.TrimSpace(line))
	}
	buf.Reset()
	if _, err := io.CopyN(buf, r, int64(n)+1); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, 0, fmt.Errorf("truncated frame (%d bytes expected): %w", n, err)
	}
	b := buf.Bytes()
	if b[n] != '\n' {
		return nil, 0, fmt.Errorf("frame missing terminator")
	}
	return b[:n], int64(len(line) + n + 1), nil
}

// Conn frames Messages over an ordered byte stream as length-delimited
// JSONL: an ASCII decimal byte count, '\n', the JSON record, '\n'. The
// explicit length makes truncation — a worker killed mid-write —
// detectable as an io error instead of a parse of half a record. Send is
// safe for concurrent use; Recv is not (each side has one reader). Each
// direction encodes through one buffer it keeps: wbuf under wmu, rbuf by
// the one reader.
type Conn struct {
	wmu  sync.Mutex
	r    *bufio.Reader
	w    *bufio.Writer
	wbuf bytes.Buffer
	enc  *json.Encoder // into wbuf
	rbuf bytes.Buffer
}

// NewConn wraps an ordered byte stream in the framing codec.
func NewConn(rw io.ReadWriter) *Conn {
	c := &Conn{r: bufio.NewReader(rw), w: bufio.NewWriter(rw)}
	c.enc = json.NewEncoder(&c.wbuf)
	return c
}

// Send marshals and writes one record, flushing the stream. An io failure
// is returned as a *TransportError (retryable); a marshal failure is not —
// it is deterministic and would fail identically on a fresh connection.
func (c *Conn) Send(m *Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf.Reset()
	if err := c.enc.Encode(m); err != nil {
		return fmt.Errorf("dist: marshal %s: %w", m.Type, err)
	}
	if err := writeFrame(c.w, c.wbuf.Bytes()); err != nil {
		return &TransportError{Op: "send", Err: err}
	}
	if err := c.w.Flush(); err != nil {
		return &TransportError{Op: "send", Err: err}
	}
	return nil
}

// Recv reads one record. A stream ending cleanly on a frame boundary
// returns bare io.EOF (a worker that finished and exited); any failure
// mid-frame returns a *TransportError. Truncation wraps
// io.ErrUnexpectedEOF, never io.EOF — a peer that died writing must not
// be classifiable as a clean disconnect.
func (c *Conn) Recv() (*Message, error) {
	rec, _, err := readFrame(c.r, &c.rbuf)
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, &TransportError{Op: "recv", Err: err}
	}
	// json.Unmarshal copies what a Message keeps (a RawMessage included),
	// so the next Recv may overwrite rbuf.
	m := new(Message)
	if err := json.Unmarshal(rec, m); err != nil {
		return nil, &TransportError{Op: "recv", Err: fmt.Errorf("bad frame: %w", err)}
	}
	return m, nil
}
