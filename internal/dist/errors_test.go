package dist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ripple/internal/stats"
)

// TestErrorTaxonomy pins the sentinel matrix: every typed error matches
// exactly the sentinels its class promises, wrapped causes stay reachable
// through Unwrap, and errors.As recovers the concrete type through
// fmt.Errorf wrapping.
func TestErrorTaxonomy(t *testing.T) {
	inner := errors.New("boom")
	cases := []struct {
		name string
		err  error
		is   []error
		not  []error
	}{
		{"cell", &CellError{Cell: 3, Err: inner},
			[]error{ErrCell}, []error{ErrCellPanic, ErrTransport, ErrProtocol}},
		{"panic", &CellPanicError{Cell: 3, Value: "v", Stack: "s"},
			[]error{ErrCell, ErrCellPanic}, []error{ErrTransport, ErrProtocol}},
		{"transport", &TransportError{Op: "recv", Err: inner},
			[]error{ErrTransport}, []error{ErrCell, ErrCellPanic, ErrProtocol}},
		{"protocol", &ProtocolError{Detail: "d"},
			[]error{ErrProtocol}, []error{ErrCell, ErrCellPanic, ErrTransport}},
	}
	for _, tc := range cases {
		for _, want := range tc.is {
			if !errors.Is(tc.err, want) {
				t.Errorf("%s: %v does not match %v", tc.name, tc.err, want)
			}
			// One wrapping layer must not break the match.
			if !errors.Is(fmt.Errorf("outer: %w", tc.err), want) {
				t.Errorf("%s: wrapped %v does not match %v", tc.name, tc.err, want)
			}
		}
		for _, not := range tc.not {
			if errors.Is(tc.err, not) {
				t.Errorf("%s: %v wrongly matches %v", tc.name, tc.err, not)
			}
		}
	}

	// Wrapped causes stay reachable.
	if !errors.Is(&CellError{Cell: 1, Err: inner}, inner) {
		t.Error("CellError does not unwrap to its cause")
	}
	if !errors.Is(&TransportError{Op: "recv", Err: io.ErrUnexpectedEOF}, io.ErrUnexpectedEOF) {
		t.Error("TransportError does not unwrap to its cause")
	}

	// errors.As through a wrapping layer.
	var te *TransportError
	if !errors.As(fmt.Errorf("outer: %w", &TransportError{Op: "send", Err: inner}), &te) ||
		te.Op != "send" {
		t.Errorf("errors.As(TransportError) = %+v", te)
	}
	var pe *CellPanicError
	if !errors.As(fmt.Errorf("outer: %w", &CellPanicError{Cell: 7, Value: "v"}), &pe) ||
		pe.Cell != 7 {
		t.Errorf("errors.As(CellPanicError) = %+v", pe)
	}
}

// TestRecvTruncationIsTransport pins the EOF split Recv promises: a clean
// EOF at a frame boundary stays bare io.EOF (a worker finishing its grid
// sequence), while death mid-frame is a transport failure wrapping
// io.ErrUnexpectedEOF — the bug class where a worker SIGKILLed mid-write
// used to read as a clean disconnect.
func TestRecvTruncationIsTransport(t *testing.T) {
	c := NewConn(bytes.NewBufferString(""))
	if _, err := c.Recv(); err != io.EOF {
		t.Errorf("empty stream: err = %v, want bare io.EOF", err)
	}

	for name, wire := range map[string]string{
		"mid-body":   "100\n{\"type\":\"cell\"}",
		"mid-header": "12",
	} {
		c := NewConn(bytes.NewBufferString(wire))
		_, err := c.Recv()
		if !errors.Is(err, ErrTransport) {
			t.Errorf("%s: err = %v, want ErrTransport", name, err)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: err = %v, want io.ErrUnexpectedEOF in chain", name, err)
		}
		if errors.Is(err, io.EOF) {
			t.Errorf("%s: err = %v wrongly reads as clean EOF", name, err)
		}
	}
}

// panicCells panics at one cell instead of returning an error.
type panicCells struct {
	fakeCells
	boom int
}

func (p panicCells) RunCell(c int) (any, map[string]stats.State, error) {
	if c == p.boom {
		panic(fmt.Sprintf("cell %d blew up", c))
	}
	return p.fakeCells.RunCell(c)
}

// TestWorkerPanicIsolated: a cell that panics must fail only that cell —
// the worker goroutine recovers, reports a typed error with the stack to
// the coordinator, and returns normally instead of taking the process
// down. Both sides surface *CellPanicError matching ErrCellPanic and
// ErrCell.
func TestWorkerPanicIsolated(t *testing.T) {
	src := panicCells{fakeCells{fp: "kaboom", n: 4, fail: -1}, 2}
	c := NewCoordinator(Options{})
	cli, srv := net.Pipe()
	go c.Serve(NewConn(srv))
	wdone := make(chan error, 1)
	go func() {
		defer cli.Close()
		w, err := NewWorker(cli, "w")
		if err != nil {
			wdone <- err
			return
		}
		wdone <- w.ServeGrid(src)
	}()

	_, err := c.RunGrid(GridSpec{Fingerprint: src.fp, NumCells: src.n, RunsPerCell: 1})
	var pe *CellPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("coordinator error = %v, want *CellPanicError", err)
	}
	if pe.Cell != 2 || !strings.Contains(pe.Value, "blew up") || pe.Stack == "" {
		t.Errorf("coordinator panic report = %+v, want cell 2 with value and stack", pe)
	}
	if !errors.Is(err, ErrCellPanic) || !errors.Is(err, ErrCell) {
		t.Errorf("coordinator error %v missing ErrCellPanic/ErrCell identity", err)
	}
	if errors.Is(err, ErrTransport) {
		t.Errorf("coordinator error %v wrongly reads as transport failure", err)
	}

	// The worker survived the panic: ServeGrid returned (rather than the
	// process dying) with the same typed error.
	werr := <-wdone
	var wpe *CellPanicError
	if !errors.As(werr, &wpe) || wpe.Cell != 2 || wpe.Stack == "" {
		t.Fatalf("worker error = %v, want *CellPanicError for cell 2 with stack", werr)
	}
	if !errors.Is(werr, ErrCellPanic) {
		t.Errorf("worker error %v missing ErrCellPanic identity", werr)
	}
}

// stallCells wedges on one cell until released, signalling entry.
type stallCells struct {
	fakeCells
	stall   int
	entered func()
	release chan struct{}
}

func (s stallCells) RunCell(c int) (any, map[string]stats.State, error) {
	if c == s.stall {
		s.entered()
		<-s.release
	}
	return s.fakeCells.RunCell(c)
}

// TestCellStallPreempted: a worker wedged inside one cell while the others
// complete must not stall the campaign. The deadline derived from the
// completed cells' times — here its floor — puts the cell back on the queue
// when it passes, not at some later tick: another worker is running the
// cell within twice the deadline. The grid completes with correct payloads;
// the wedged worker's eventual late delivery is deduped, and it still exits
// cleanly.
func TestCellStallPreempted(t *testing.T) {
	base := fakeCells{fp: "stall", n: 4, fail: -1}
	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	stuck := stallCells{
		fakeCells: base,
		stall:     0,
		entered:   func() { once.Do(func() { close(entered) }) },
		release:   release,
	}

	log := &raceLog{t: t}
	c := NewCoordinator(Options{Logf: log.logf})
	c.floor = 250 * time.Millisecond // the slack below is a loaded machine's
	wstuck := serveCells(c, "stuck", stuck)

	type gridResult struct {
		out *GridOutput
		err error
	}
	resc := make(chan gridResult, 1)
	go func() {
		out, err := c.RunGrid(GridSpec{Fingerprint: base.fp, NumCells: base.n, RunsPerCell: 1})
		resc <- gridResult{out, err}
	}()
	<-entered // the stuck worker holds cell 0 and is wedged inside it
	wedged := time.Now()

	// The healthy worker stalls on nothing (its release is closed); the hook
	// tells when cell 0 reaches it.
	var ran int32
	var raced atomic.Int64
	free := make(chan struct{})
	close(free)
	healthy := serveCells(c, "healthy", countingCells{stallCells{
		fakeCells: base,
		stall:     0,
		entered:   func() { raced.Store(int64(time.Since(wedged))) },
		release:   free,
	}, &ran})

	r := <-resc
	if r.err != nil {
		t.Fatal(r.err)
	}
	close(release) // un-wedge; the late delivery of cell 0 must be ignored
	if err := <-healthy; err != nil {
		t.Fatalf("healthy worker: %v", err)
	}
	if err := <-wstuck; err != nil {
		t.Fatalf("stuck worker: %v", err)
	}
	c.Close()

	for i, p := range r.out.Payloads {
		if string(p) != fmt.Sprintf("[%d]", i) {
			t.Errorf("payload %d = %s", i, p)
		}
	}
	// The healthy worker must have raced and won the stalled cell too.
	if n := atomic.LoadInt32(&ran); n != int32(base.n) {
		t.Errorf("healthy worker ran %d cells, want %d (including the raced cell 0)", n, base.n)
	}
	if n := log.races(); n < 1 {
		t.Errorf("no cell raced, want cell 0")
	}
	if d := time.Duration(raced.Load()); d > 2*c.floor {
		t.Errorf("the stalled cell reached another worker after %v, want within twice the %v deadline", d, c.floor)
	}
}
