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
		Seeds:    seeds,
		Duration: 200 * sim.Millisecond,
		Pool:     pool.New(1),
		Build: func(pt campaign.Point) (network.Config, error) {
			top, path := topology.Line(hops[pt.Index("hops")])
			return network.Config{
				Positions: top.Positions,
				Scheme:    schemes[pt.Index("scheme")],
				Flows:     []network.FlowSpec{{ID: 1, Path: path, Kind: network.FTP}},
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

	c := NewCoordinator(Options{LeaseCells: 1})
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
	c := NewCoordinator(Options{LeaseCells: 1, Logf: t.Logf})
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

// TestLeaseTimeoutReassigned covers the stall (not crash) failure: a
// worker takes a lease, never delivers, but keeps its connection open.
// Only the lease timeout can recover the cells.
func TestLeaseTimeoutReassigned(t *testing.T) {
	g := testGrid([]uint64{1})
	want, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(Options{LeaseCells: 1, LeaseTimeout: 50 * time.Millisecond, Logf: t.Logf})
	type gridResult struct {
		res *campaign.Result
		err error
	}
	resc := make(chan gridResult, 1)
	go func() {
		res, err := ExecuteGrid(c, &g)
		resc <- gridResult{res, err}
	}()

	// Stalled worker: handshake, take one lease, then hold the connection
	// open without ever delivering.
	leased := make(chan struct{})
	release := make(chan struct{})
	cli, srv := net.Pipe()
	go c.Serve(NewConn(srv))
	plan, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer cli.Close()
		conn := NewConn(cli)
		conn.Send(&Message{Type: MsgHello, Proto: ProtoVersion, Worker: "stalled"})
		conn.Send(&Message{Type: MsgReady, Grid: plan.Fingerprint()})
		if m, err := conn.Recv(); err != nil || m.Type != MsgLease {
			t.Errorf("stalled worker: got %v, %v", m, err)
		}
		close(leased)
		<-release
	}()
	<-leased
	healthy := startWorker(c, "healthy", []*campaign.Grid{&g})

	r := <-resc
	got, err := r.res, r.err
	if err != nil {
		t.Fatal(err)
	}
	if err := <-healthy; err != nil {
		t.Fatalf("healthy worker: %v", err)
	}
	close(release)
	c.Close()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-timeout result differs:\ngot  %+v\nwant %+v", got, want)
	}
}

// countingCells wraps a CellSet and counts executed cells.
type countingCells struct {
	CellSet
	n *int32
}

func (c countingCells) RunCell(i int) (any, map[string]stats.State, error) {
	atomic.AddInt32(c.n, 1)
	return c.CellSet.RunCell(i)
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
	// the coordinator down (as an orderly preemption would): with no
	// journal the abandoned grid's cells reach the file in Close.
	c1 := NewCoordinator(Options{LeaseCells: 1, Checkpoint: NewCheckpoint(path)})
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
	if err := <-errc; err == nil {
		t.Fatal("aborted campaign did not fail")
	}

	// Phase 2: resume. The worker must only execute the remaining cells.
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCoordinator(Options{LeaseCells: 1, Checkpoint: ck, Logf: t.Logf})
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
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed result differs:\ngot  %+v\nwant %+v", got, want)
	}
	if n := atomic.LoadInt32(&ran); int(n) != plan.NumCells()-2 {
		t.Errorf("resume re-executed cells: worker ran %d, want %d", n, plan.NumCells()-2)
	}

	// Phase 3: the checkpoint now records a complete grid; running it
	// again needs no workers at all.
	ck3, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	c3 := NewCoordinator(Options{Checkpoint: ck3})
	again, err := ExecuteGrid(c3, &g)
	if err != nil {
		t.Fatal(err)
	}
	c3.Close()
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
// damaged or mismatched checkpoints.
func TestCheckpointRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")

	// Build a valid checkpoint from a fake 3-cell grid.
	ck := NewCheckpoint(path)
	done := []bool{true, true, true}
	cells := make([]cellRecord, 3)
	for i := range cells {
		cells[i] = cellRecord{Payload: json.RawMessage(fmt.Sprintf("[%d]", i))}
	}
	if err := ck.save("fp-a", 3, done, cells); err != nil {
		t.Fatal(err)
	}

	if _, err := LoadCheckpoint(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing checkpoint loaded")
	}

	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := loaded.restore("fp-a", 4); err == nil ||
		!strings.Contains(err.Error(), "cells") {
		t.Errorf("cell-count mismatch accepted: %v", err)
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
	if _, err := LoadCheckpoint(path); err == nil ||
		!strings.Contains(err.Error(), "corrupt") {
		t.Errorf("truncated checkpoint loaded: %v", err)
	}

	// Wrong version.
	if err := os.WriteFile(path, []byte(`{"version":99,"grids":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("wrong-version checkpoint loaded: %v", err)
	}

	// Bitmap and records disagreeing.
	if err := ck.save("fp-a", 3, done, cells); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	grid := doc["grids"].(map[string]any)["fp-a"].(map[string]any)
	delete(grid["cells"].(map[string]any), "1")
	mangled, _ := json.Marshal(doc)
	if err := os.WriteFile(path, mangled, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err = LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := loaded.restore("fp-a", 3); err == nil {
		t.Error("bitmap/record mismatch accepted")
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
	c := NewCoordinator(Options{LeaseCells: 1})
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
	c := NewCoordinator(Options{LeaseCells: 3})
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
	c := NewCoordinator(Options{LeaseCells: 2})
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
