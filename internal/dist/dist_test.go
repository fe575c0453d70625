package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ripple/internal/campaign"
	"ripple/internal/campaign/pool"
	"ripple/internal/network"
	"ripple/internal/sim"
	"ripple/internal/stats"
	"ripple/internal/topology"
)

// testGrid is a small but real scheme × hops campaign, the same shape the
// campaign package tests with.
func testGrid(seeds []uint64) campaign.Grid {
	schemes := []network.SchemeKind{network.DCF, network.Ripple}
	hops := []int{2, 3}
	return campaign.Grid{
		Name: "dist-line",
		Axes: []campaign.Axis{
			campaign.A("scheme", "DCF", "RIPPLE"),
			campaign.A("hops", "2", "3"),
		},
		Seeds: seeds,
		Pool:  pool.New(1),
		Build: func(pt campaign.Point) (network.Config, error) {
			top, path := topology.Line(hops[pt.Index("hops")])
			return network.Config{
				Positions: top.Positions,
				Scheme:    schemes[pt.Index("scheme")],
				Flows:     []network.FlowSpec{{ID: 1, Path: path, Kind: network.FTP}},
				Duration:  200 * sim.Millisecond,
			}, nil
		},
	}
}

// startWorker runs a well-behaved worker over an in-process pipe, serving
// the given grids in order, and reports its final error on the channel.
func startWorker(c *Coordinator, name string, grids []*campaign.Grid) chan error {
	errc := make(chan error, 1)
	cli, srv := net.Pipe()
	go c.Serve(NewConn(srv))
	go func() {
		defer cli.Close()
		w, err := NewWorker(cli, name)
		if err != nil {
			errc <- err
			return
		}
		for _, g := range grids {
			plan, err := g.Plan()
			if err != nil {
				errc <- err
				return
			}
			if err := w.ServeGrid(GridCells{Plan: plan, Pool: pool.New(1)}); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	return errc
}

// TestDistributedEqualsRun is the subsystem's correctness bar: a
// two-grid campaign executed by two workers over the wire protocol must
// assemble results deeply equal to uninterrupted in-process runs —
// same per-seed results, same means, same order.
func TestDistributedEqualsRun(t *testing.T) {
	g1 := testGrid([]uint64{1, 2})
	g2 := testGrid([]uint64{3})
	g2.Name = "dist-line-b" // distinct fingerprint
	want1, err := g1.Run()
	if err != nil {
		t.Fatal(err)
	}
	want2, err := g2.Run()
	if err != nil {
		t.Fatal(err)
	}

	c := NewCoordinator(Options{})
	w1 := startWorker(c, "w1", []*campaign.Grid{&g1, &g2})
	w2 := startWorker(c, "w2", []*campaign.Grid{&g1, &g2})

	got1, err := ExecuteGrid(c, &g1)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := ExecuteGrid(c, &g2)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-w1; err != nil {
		t.Fatalf("worker 1: %v", err)
	}
	if err := <-w2; err != nil {
		t.Fatalf("worker 2: %v", err)
	}
	c.Close()

	if !reflect.DeepEqual(got1, want1) {
		t.Errorf("grid 1 differs from in-process run:\ngot  %+v\nwant %+v", got1, want1)
	}
	if !reflect.DeepEqual(got2, want2) {
		t.Errorf("grid 2 differs from in-process run:\ngot  %+v\nwant %+v", got2, want2)
	}
}

// flakyWorker speaks the protocol by hand: it delivers quota cells, then
// dies mid-record — it declares a frame longer than what it writes and
// slams the connection, exactly what a SIGKILLed worker leaves on the
// wire.
func flakyWorker(t *testing.T, c *Coordinator, g *campaign.Grid, quota int) chan struct{} {
	t.Helper()
	done := make(chan struct{})
	cli, srv := net.Pipe()
	go c.Serve(NewConn(srv))
	plan, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	fp := plan.Fingerprint()
	go func() {
		defer close(done)
		defer cli.Close()
		conn := NewConn(cli)
		if err := conn.Send(&Message{Type: MsgHello, Proto: ProtoVersion, Worker: "flaky"}); err != nil {
			return
		}
		delivered := 0
		for {
			if err := conn.Send(&Message{Type: MsgReady, Grid: fp}); err != nil {
				return
			}
			m, err := conn.Recv()
			if err != nil || m.Type != MsgLease {
				return
			}
			for _, cell := range m.Cells {
				seeds, err := plan.RunCell(cell, pool.New(1))
				if err != nil {
					return
				}
				raw, _ := json.Marshal(seeds)
				if delivered == quota {
					// Truncated frame: promise more bytes than we send.
					fmt.Fprintf(cli, "%d\n", len(raw)+64)
					cli.Write(raw[:len(raw)/2])
					return
				}
				if err := conn.Send(&Message{Type: MsgCell, Grid: fp, Lease: m.Lease,
					Cell: cell, Payload: raw, Stats: ResultStats(seeds)}); err != nil {
					return
				}
				delivered++
			}
		}
	}()
	return done
}

// TestWorkerLossReassigned kills a worker mid-lease and mid-record and
// checks the coordinator hands the forfeited cells to the surviving
// worker, with the final table identical to a single-process run.
func TestWorkerLossReassigned(t *testing.T) {
	g := testGrid([]uint64{1, 2})
	want, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(Options{Logf: t.Logf})
	type gridResult struct {
		res *campaign.Result
		err error
	}
	resc := make(chan gridResult, 1)
	go func() {
		res, err := ExecuteGrid(c, &g)
		resc <- gridResult{res, err}
	}()
	dead := flakyWorker(t, c, &g, 1) // one good cell, then dies mid-record
	<-dead                           // coordinator must recover with no live copy of the lease
	healthy := startWorker(c, "healthy", []*campaign.Grid{&g})

	r := <-resc
	got, err := r.res, r.err
	if err != nil {
		t.Fatal(err)
	}
	if err := <-healthy; err != nil {
		t.Fatalf("healthy worker: %v", err)
	}
	c.Close()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-fault result differs:\ngot  %+v\nwant %+v", got, want)
	}
}

// handWorker speaks the worker protocol by hand, a step at a time, so a
// test decides when — and whether — a granted cell is delivered.
type handWorker struct {
	t    *testing.T
	name string
	conn *Conn
}

func newHandWorker(t *testing.T, c *Coordinator, name string) *handWorker {
	t.Helper()
	cli, srv := net.Pipe()
	go c.Serve(NewConn(srv))
	t.Cleanup(func() { cli.Close() })
	w := &handWorker{t, name, NewConn(cli)}
	if err := w.conn.Send(&Message{Type: MsgHello, Proto: ProtoVersion, Worker: name}); err != nil {
		t.Fatal(err)
	}
	return w
}

// take asks for a cell of grid fp and returns the one granted. A grant
// that does not come in ten seconds fails the test: the cell the worker is
// waiting for was never put back on the queue.
func (w *handWorker) take(fp string) int {
	w.t.Helper()
	if err := w.conn.Send(&Message{Type: MsgReady, Grid: fp}); err != nil {
		w.t.Fatal(err)
	}
	type reply struct {
		m   *Message
		err error
	}
	got := make(chan reply, 1)
	go func() {
		m, err := w.conn.Recv()
		got <- reply{m, err}
	}()
	select {
	case r := <-got:
		if r.err != nil || r.m.Type != MsgLease || len(r.m.Cells) != 1 || r.m.Lease != r.m.Cells[0] {
			w.t.Fatalf("%s: asked for a cell, got %+v, %v", w.name, r.m, r.err)
		}
		return r.m.Cells[0]
	case <-time.After(10 * time.Second):
		w.t.Fatalf("%s: no cell granted in 10 s", w.name)
	}
	panic("unreachable")
}

// deliver runs a cell and sends its result.
func (w *handWorker) deliver(src sizedCells, cell int) {
	w.t.Helper()
	payload, st, err := src.RunCell(cell)
	if err != nil {
		w.t.Fatal(err)
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		w.t.Fatal(err)
	}
	if err := w.conn.Send(&Message{Type: MsgCell, Grid: src.Fingerprint(), Lease: cell,
		Cell: cell, Payload: raw, Stats: st}); err != nil {
		w.t.Fatal(err)
	}
}

// raceLog collects a coordinator's log and counts the cells it raced.
type raceLog struct {
	t  *testing.T
	mu sync.Mutex
	n  int
}

func (l *raceLog) logf(format string, args ...any) {
	l.t.Helper()
	l.t.Logf(format, args...)
	if strings.HasSuffix(format, "racing it") {
		l.mu.Lock()
		l.n++
		l.mu.Unlock()
	}
}

func (l *raceLog) races() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// TestLeaseTimeoutReassigned covers the stall (not crash) failure before
// any cell of the grid has completed, when there is no cell time to derive
// a deadline from: a worker takes every cell, never delivers, but keeps its
// connection open. The first-cell patience puts the cells back on the
// queue — not before it has passed — and the campaign finishes on another
// worker with the result of an in-process run.
func TestLeaseTimeoutReassigned(t *testing.T) {
	g := testGrid([]uint64{1})
	want, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	log := &raceLog{t: t}
	c := NewCoordinator(Options{Logf: log.logf})
	c.patience = 50 * time.Millisecond
	type gridResult struct {
		res *campaign.Result
		err error
	}
	resc := make(chan gridResult, 1)
	go func() {
		res, err := ExecuteGrid(c, &g)
		resc <- gridResult{res, err}
	}()

	stalled := newHandWorker(t, c, "stalled")
	for i := 0; i < plan.NumCells(); i++ {
		stalled.take(plan.Fingerprint())
	}
	taken := time.Now()
	healthy := startWorker(c, "healthy", []*campaign.Grid{&g})

	r := <-resc
	got, err := r.res, r.err
	if err != nil {
		t.Fatal(err)
	}
	if err := <-healthy; err != nil {
		t.Fatalf("healthy worker: %v", err)
	}
	c.Close()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-timeout result differs:\ngot  %+v\nwant %+v", got, want)
	}
	// At least: under the race detector the healthy worker's own first
	// cell can outlast a patience this short.
	if n := log.races(); n < plan.NumCells() {
		t.Errorf("%d cells raced, want each of the stalled worker's %d", n, plan.NumCells())
	}
	if d := time.Since(taken); d < c.patience {
		t.Errorf("the grid finished %v after its last cell was taken: raced before the %v patience had passed", d, c.patience)
	}
}

// TestRacedCellRearmedPerGrant: the worker that takes a raced cell stalls
// too. The cell's second grant has a deadline of its own — raced is a
// property of a grant, not of a cell — so a third worker gets it and the
// grid completes.
func TestRacedCellRearmedPerGrant(t *testing.T) {
	src := fakeCells{fp: "twice", n: 2, fail: -1}
	log := &raceLog{t: t}
	c := NewCoordinator(Options{Logf: log.logf})
	c.floor = 30 * time.Millisecond
	type gridResult struct {
		out *GridOutput
		err error
	}
	resc := make(chan gridResult, 1)
	go func() {
		out, err := c.RunGrid(GridSpec{Fingerprint: src.fp, NumCells: src.n, RunsPerCell: 1})
		resc <- gridResult{out, err}
	}()

	// One delivered cell gives the grid a cell time, and so the floor as
	// its deadline.
	first := newHandWorker(t, c, "first")
	first.deliver(src, first.take(src.fp))
	for _, name := range []string{"stalls", "stalls too"} {
		if cell := newHandWorker(t, c, name).take(src.fp); cell != 1 {
			t.Fatalf("%s was granted cell %d, want the raced cell 1", name, cell)
		}
	}
	third := newHandWorker(t, c, "third")
	third.deliver(src, third.take(src.fp))

	r := <-resc
	if r.err != nil {
		t.Fatal(r.err)
	}
	c.Close()
	for i, p := range r.out.Payloads {
		if string(p) != fmt.Sprintf("[%d]", i) {
			t.Errorf("payload %d = %s", i, p)
		}
	}
	if n := log.races(); n < 2 {
		t.Errorf("%d races, want cell 1 raced once per stalled grant", n)
	}
}

// TestWatchdogRacesAGrantOnce: a grant past its deadline puts its cell back
// on the queue the first time the watchdog sees it, and never again.
func TestWatchdogRacesAGrantOnce(t *testing.T) {
	c := NewCoordinator(Options{})
	gr := &gridRun{
		fp:       "once",
		numCells: 1,
		grants:   map[int]*grant{0: {at: time.Now().Add(-time.Hour)}},
		watchdog: time.NewTimer(time.Hour),
	}
	defer gr.watchdog.Stop()
	c.mu.Lock()
	c.watchLocked(gr)
	c.watchLocked(gr)
	c.mu.Unlock()
	if len(gr.queue) != 1 || gr.races != 1 {
		t.Errorf("the watchdog ran twice over one overdue grant: queue %v, %d races, want the cell queued once", gr.queue, gr.races)
	}
}

// TestHalfPersistencePanics: a checkpoint without its journal, or a journal
// without its checkpoint, is a configuration no caller means.
func TestHalfPersistencePanics(t *testing.T) {
	ck, wal, err := OpenPersistence(filepath.Join(t.TempDir(), "ckpt.json"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	for name, opt := range map[string]Options{
		"checkpoint only": {Checkpoint: ck},
		"journal only":    {WAL: wal},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "OpenPersistence") {
					t.Errorf("%s: NewCoordinator panicked with %q, want a message naming OpenPersistence", name, msg)
				}
			}()
			NewCoordinator(opt)
			t.Errorf("%s: NewCoordinator did not panic", name)
		}()
	}
}

// countingCells wraps a CellSet and counts executed cells.
type countingCells struct {
	sizedCells
	n *int32
}

func (c countingCells) RunCell(i int) (any, map[string]stats.State, error) {
	atomic.AddInt32(c.n, 1)
	return c.sizedCells.RunCell(i)
}

// TestCheckpointResume interrupts a checkpointing campaign after two
// cells, then resumes it from the file with a fresh coordinator: the
// restored cells must not re-execute and the assembled result must be
// deeply equal to an uninterrupted run.
func TestCheckpointResume(t *testing.T) {
	g := testGrid([]uint64{1, 2})
	want, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.json")

	// Phase 1: record exactly two cells, then lose the worker and shut
	// the coordinator down (as an orderly preemption would): Close moves
	// the abandoned grid's cells from the journal into the file.
	ck, wal, err := OpenPersistence(path, false)
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewCoordinator(Options{Checkpoint: ck, WAL: wal})
	var runs atomic.Int32
	g1 := g
	g1.Progress = func(done, total int) { runs.Store(int32(done)) }
	errc := make(chan error, 1)
	go func() {
		_, err := ExecuteGrid(c1, &g1)
		errc <- err
	}()
	dead := flakyWorker(t, c1, &g1, 2)
	<-dead
	// The second cell is marked done by the committer; wait for it.
	waitFor(t, func() bool { return int(runs.Load()) == 2*len(g.Seeds) })
	c1.Close()
	wal.Close()
	if err := <-errc; err == nil {
		t.Fatal("aborted campaign did not fail")
	}

	// Phase 2: resume. The worker must only execute the remaining cells.
	if ck, wal, err = OpenPersistence(path, true); err != nil {
		t.Fatal(err)
	}
	if n := len(wal.frames); n != 0 {
		t.Fatalf("the closed coordinator left %d records in the journal", n)
	}
	c2 := NewCoordinator(Options{Checkpoint: ck, WAL: wal, Logf: t.Logf})
	var ran int32
	wdone := make(chan error, 1)
	cli, srv := net.Pipe()
	go c2.Serve(NewConn(srv))
	go func() {
		defer cli.Close()
		w, err := NewWorker(cli, "resumer")
		if err != nil {
			wdone <- err
			return
		}
		wdone <- w.ServeGrid(countingCells{GridCells{Plan: plan, Pool: pool.New(1)}, &ran})
	}()
	got, err := ExecuteGrid(c2, &g)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-wdone; err != nil {
		t.Fatalf("resuming worker: %v", err)
	}
	c2.Close()
	wal.Close()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed result differs:\ngot  %+v\nwant %+v", got, want)
	}
	if n := atomic.LoadInt32(&ran); int(n) != plan.NumCells()-2 {
		t.Errorf("resume re-executed cells: worker ran %d, want %d", n, plan.NumCells()-2)
	}

	// Phase 3: the checkpoint now records a complete grid; running it
	// again needs no workers at all.
	if ck, wal, err = OpenPersistence(path, true); err != nil {
		t.Fatal(err)
	}
	c3 := NewCoordinator(Options{Checkpoint: ck, WAL: wal})
	again, err := ExecuteGrid(c3, &g)
	if err != nil {
		t.Fatal(err)
	}
	c3.Close()
	wal.Close()
	if !reflect.DeepEqual(again, want) {
		t.Errorf("fully restored result differs from run")
	}
}

func waitFor(t *testing.T, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCheckpointRejectsCorruption pins the loud-failure contract for
// damaged or mismatched checkpoints, through the door a resume comes in by.
func TestCheckpointRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	resume := func() (*Checkpoint, error) {
		ck, wal, err := OpenPersistence(path, true)
		if err == nil {
			wal.Close()
		}
		return ck, err
	}

	// Build a valid checkpoint from a fake 3-cell grid.
	ck := NewCheckpoint(path)
	done := []bool{true, true, true}
	cells := make([]walRecord, 3)
	for i := range cells {
		cells[i] = walRecord{Payload: json.RawMessage(fmt.Sprintf("[%d]", i))}
	}
	if err := ck.save("fp-a", done, cells); err != nil {
		t.Fatal(err)
	}

	if _, err := LoadCheckpoint(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing checkpoint loaded")
	}

	loaded, err := resume()
	if err != nil {
		t.Fatal(err)
	}
	if d, _, err := loaded.restore("fp-unknown", 3); err != nil || d != nil {
		t.Errorf("unknown grid should restore empty, got %v, %v", d, err)
	}

	// Truncated file.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := resume(); err == nil ||
		!strings.Contains(err.Error(), "corrupt") {
		t.Errorf("truncated checkpoint loaded: %v", err)
	}

	// Wrong version.
	if err := os.WriteFile(path, []byte(`{"version":99,"grids":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := resume(); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("wrong-version checkpoint loaded: %v", err)
	}
}

// fakeCells is a trivial CellSet for protocol-level tests.
type fakeCells struct {
	fp   string
	n    int
	fail int // cell index that errors; -1 for none
}

func (f fakeCells) Fingerprint() string { return f.fp }
func (f fakeCells) NumCells() int       { return f.n }
func (f fakeCells) RunCell(c int) (any, map[string]stats.State, error) {
	if c == f.fail {
		return nil, nil, fmt.Errorf("cell %d exploded", c)
	}
	var w stats.Welford
	w.Add(float64(c))
	return []int{c}, map[string]stats.State{"v": w.State()}, nil
}

// TestWorkerErrorPoisonsCampaign: a deterministic cell failure must fail
// both sides loudly, not hang or get silently retried forever.
func TestWorkerErrorPoisonsCampaign(t *testing.T) {
	src := fakeCells{fp: "boom", n: 4, fail: 2}
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
	if err == nil || !strings.Contains(err.Error(), "exploded") {
		t.Fatalf("coordinator error = %v", err)
	}
	if err := <-wdone; err == nil {
		t.Fatal("worker did not surface the cell error")
	}
}

// TestGridOutputStatsMerged checks the coordinator's merged metric plane:
// cell states merged in index order must equal a serial accumulation.
func TestGridOutputStatsMerged(t *testing.T) {
	src := fakeCells{fp: "stats", n: 10, fail: -1}
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
	out, err := c.RunGrid(GridSpec{Fingerprint: src.fp, NumCells: src.n, RunsPerCell: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-wdone; err != nil {
		t.Fatal(err)
	}
	c.Close()
	var want stats.Welford
	for i := 0; i < src.n; i++ {
		want.Add(float64(i))
	}
	if got := stats.FromState(out.Stats["v"]); got != want {
		t.Errorf("merged stats = %+v, want %+v", got, want)
	}
	for i, p := range out.Payloads {
		if string(p) != fmt.Sprintf("[%d]", i) {
			t.Errorf("payload %d = %s", i, p)
		}
	}
}

// TestConnFraming pins the wire format: length-delimited JSON with a
// trailing newline, truncation and garbage detected as errors.
func TestConnFraming(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	msg := &Message{Type: MsgCell, Grid: "g", Lease: 3, Cell: 7,
		Payload: json.RawMessage(`{"x":1}`)}
	if err := c.Send(msg); err != nil {
		t.Fatal(err)
	}
	// Frame = "<len>\n<json>\n".
	wire := buf.String()
	nl := strings.IndexByte(wire, '\n')
	if nl < 0 {
		t.Fatalf("no length line in %q", wire)
	}
	body := wire[nl+1:]
	if fmt.Sprintf("%d", len(body)-1) != wire[:nl] || !strings.HasSuffix(body, "\n") {
		t.Fatalf("bad framing: %q", wire)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != msg.Type || got.Cell != 7 || string(got.Payload) != `{"x":1}` {
		t.Fatalf("round trip = %+v", got)
	}

	for name, wire := range map[string]string{
		"truncated":  "100\n{\"type\":\"cell\"}\n",
		"bad length": "zap\n{}\n",
		"negative":   "-4\n{}\n",
		"no newline": "2\n{}",
	} {
		c := NewConn(bytes.NewBufferString(wire))
		if _, err := c.Recv(); err == nil {
			t.Errorf("%s frame accepted", name)
		}
	}
}

// TestSpawnWorkersValidates covers the argument guards; real process
// spawning is exercised by the cmd/experiments end-to-end test.
func TestSpawnWorkersValidates(t *testing.T) {
	c := NewCoordinator(Options{})
	if _, err := SpawnWorkers(c, 0, []string{"true"}, nil); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := SpawnWorkers(c, 1, nil, nil); err == nil {
		t.Error("empty argv accepted")
	}
}

// TestListenDial exercises the TCP transport end to end with fakeCells.
func TestListenDial(t *testing.T) {
	src := fakeCells{fp: "tcp", n: 6, fail: -1}
	c := NewCoordinator(Options{})
	addr, stop, err := Listen(c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, closer, err := Dial(addr.String(), fmt.Sprintf("tcp-%d", i))
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer closer.Close()
			if err := w.ServeGrid(src); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	out, err := c.RunGrid(GridSpec{Fingerprint: src.fp, NumCells: src.n, RunsPerCell: 1})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	c.Close()
	for i, p := range out.Payloads {
		if string(p) != fmt.Sprintf("[%d]", i) {
			t.Errorf("payload %d = %s", i, p)
		}
	}
}
