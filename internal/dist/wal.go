package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"ripple/internal/stats"
)

// WAL is the coordinator's result write-ahead journal: every delivered
// cell is appended and fsync'd before the coordinator counts it, so a crash
// at any moment loses nothing a worker delivered. The checkpoint is the
// journal's compaction — a snapshot the coordinator writes when the journal
// has outgrown the last one (see Coordinator) — and once a snapshot is on
// disk the journal drops exactly the records that snapshot holds. A resumed
// run replays what is left on top of the restored checkpoint.
//
// Records use the same length-delimited JSON framing as the wire protocol
// (decimal byte count, '\n', JSON, '\n'), appended to one flat file. The
// append-only discipline gives the crash semantics: a coordinator killed
// mid-append leaves a truncated tail frame, which Open treats as the
// clean crash point — everything before it is intact — and trims. Frame
// garbage anywhere else means corruption and is a loud error.
type WAL struct {
	mu   sync.Mutex
	path string
	f    *os.File
	// recs is every record the file holds, in file order: compaction
	// decides over them without reading the file back. The first restored
	// of them were decoded at Open — what a resumed grid replays.
	recs     []walRecord
	restored int
	size     int64
	buf      bytes.Buffer // a batch's frames, written with one write
}

// walRecord is one journalled cell: grid fingerprint, flat cell index,
// the raw payload bytes exactly as the worker sent them, and the cell's
// per-metric Welford states.
type walRecord struct {
	Grid    string                 `json:"grid"`
	Cell    int                    `json:"cell"`
	Payload json.RawMessage        `json:"payload"`
	Stats   map[string]stats.State `json:"stats,omitempty"`
}

// CreateWAL starts a fresh journal at path, discarding any existing file.
func CreateWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dist: wal: %w", err)
	}
	return &WAL{path: path, f: f}, nil
}

// OpenWAL opens the journal at path for resumption, decoding the records
// already present. A missing file is an empty journal, not an error (a
// campaign interrupted before its first delivery has written nothing). A
// truncated tail frame — the coordinator died mid-append — marks the
// crash point: it is trimmed and everything before it restored. Garbage
// anywhere before the tail is corruption and fails loudly.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dist: wal: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("dist: wal: %w", err)
	}
	recs, valid, err := decodeWAL(data)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("dist: wal %s: %w", path, err)
	}
	if valid < len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, fmt.Errorf("dist: wal: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("dist: wal: %w", err)
	}
	return &WAL{path: path, f: f, recs: recs, restored: len(recs), size: int64(valid)}, nil
}

// Restored returns the records decoded at Open time that no compaction has
// dropped since, in append order.
func (w *WAL) Restored() []walRecord {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.recs[:w.restored:w.restored]
}

// Size is the journal file's length in bytes.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// frameWriter is what a record's frame is encoded into: the journal's
// batch buffer or a snapshot's buffered writer.
type frameWriter interface {
	io.Writer
	io.ByteWriter
	AvailableBuffer() []byte
}

// encodeFrame appends one record's wire frame to w.
func encodeFrame(w frameWriter, r walRecord) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	w.Write(strconv.AppendInt(w.AvailableBuffer(), int64(len(b)), 10))
	w.WriteByte('\n')
	w.Write(b)
	w.WriteByte('\n')
	return nil
}

// Append journals one delivered cell and fsyncs before returning: once
// Append returns, the cell survives a crash.
func (w *WAL) Append(grid string, cell int, payload json.RawMessage, st map[string]stats.State) error {
	return w.appendBatch([]walRecord{{Grid: grid, Cell: cell, Payload: payload, Stats: st}})
}

// appendBatch journals a batch of delivered cells with one write and one
// fsync — group commit: the coordinator hands over whatever was delivered
// while the previous fsync was in flight. Once it returns, every cell of
// the batch survives a crash. One buffered write per batch: a crash can
// truncate the tail frame but never interleave two partial frames.
func (w *WAL) appendBatch(recs []walRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Reset()
	for _, r := range recs {
		if err := encodeFrame(&w.buf, r); err != nil {
			return fmt.Errorf("dist: wal: %w", err)
		}
	}
	if _, err := w.f.Write(w.buf.Bytes()); err != nil {
		return fmt.Errorf("dist: wal: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("dist: wal: %w", err)
	}
	w.recs = append(w.recs, recs...)
	w.size += int64(w.buf.Len())
	return nil
}

// compact drops from the journal every record for which covered reports
// true — the cells the checkpoint file on disk holds — and keeps the rest,
// whichever incarnation wrote them: a previous incarnation's progress on a
// grid the snapshot does not hold yet survives, as does anything delivered
// that the snapshot missed. The caller writes the snapshot first and
// compacts second, so at no moment is a cell in neither file. The rewrite
// is atomic (temp file + fsync + rename): a crash mid-compaction leaves
// either the old journal or the new one, never a torn file. Appends
// continue on the new file.
func (w *WAL) compact(covered func(grid string, cell int) bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	// Into a new slice: a caller may still be reading Restored's.
	var keep []walRecord
	restored := 0
	for i, r := range w.recs {
		if covered(r.Grid, r.Cell) {
			continue
		}
		keep = append(keep, r)
		if i < w.restored {
			restored++
		}
	}
	if len(keep) == len(w.recs) {
		return nil
	}
	w.buf.Reset()
	for _, r := range keep {
		if err := encodeFrame(&w.buf, r); err != nil {
			return fmt.Errorf("dist: wal: %w", err)
		}
	}
	tmp, err := os.CreateTemp(filepath.Dir(w.path), ".wal-*")
	if err != nil {
		return fmt.Errorf("dist: wal: %w", err)
	}
	_, err = tmp.Write(w.buf.Bytes())
	if err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = os.Rename(tmp.Name(), w.path)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("dist: wal: %w", err)
	}
	w.f.Close()
	w.f = tmp
	w.recs, w.restored, w.size = keep, restored, int64(w.buf.Len())
	return nil
}

// Close closes the journal file. A coordinator journalling to it must be
// closed first: its Close writes the final snapshot and compacts.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// decodeWAL parses a journal image. It returns the complete records and
// the byte length they span. A truncated tail — a header without its
// newline at EOF, or a frame body shorter than its header promised — is
// the expected shape of a crash mid-append: not an error, the records
// before it are returned and validLen marks where the intact prefix ends.
// Anything else malformed (junk where the length belongs, a complete
// frame with a wrong terminator or invalid JSON) is corruption and
// returns an error.
func decodeWAL(data []byte) (recs []walRecord, validLen int, err error) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return recs, off, nil // header cut short at EOF: crash point
		}
		header := strings.TrimSpace(string(data[off : off+nl]))
		n, aerr := strconv.Atoi(header)
		if aerr != nil || n < 0 || n > maxFrame {
			return nil, 0, fmt.Errorf("bad frame length %q at offset %d", header, off)
		}
		body := off + nl + 1
		if body+n+1 > len(data) {
			return recs, off, nil // body cut short at EOF: crash point
		}
		if data[body+n] != '\n' {
			return nil, 0, fmt.Errorf("frame at offset %d missing terminator", off)
		}
		var r walRecord
		if uerr := json.Unmarshal(data[body:body+n], &r); uerr != nil {
			return nil, 0, fmt.Errorf("bad frame at offset %d: %w", off, uerr)
		}
		recs = append(recs, r)
		off = body + n + 1
	}
	return recs, off, nil
}
