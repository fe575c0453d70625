package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ripple/internal/campaign"
	"ripple/internal/campaign/pool"
	"ripple/internal/stats"
)

// Black-box tests of the coordinator's two files: what is on disk when a
// cell counts, what a finished campaign leaves, what a crash leaves and what
// a resume makes of it. They read the checkpoint and the journal the way a
// resumed process would, through LoadCheckpoint and decodeWAL.

// crashCampaign is the three-grid campaign the crash tests and their helper
// process both construct: the real scheme × hops grid under three names.
func crashCampaign() []*campaign.Grid {
	var grids []*campaign.Grid
	for i, seeds := range [][]uint64{{1, 2}, {3}, {4, 5}} {
		g := testGrid(seeds)
		g.Name = fmt.Sprintf("crash-%d", i+1)
		grids = append(grids, &g)
	}
	return grids
}

const (
	crashCkptEnv  = "DIST_TEST_CRASH_CKPT"  // checkpoint path of the helper's campaign
	crashGridsEnv = "DIST_TEST_CRASH_GRIDS" // how many of crashCampaign's grids it runs
)

// TestCrashingCoordinatorHelper is not a test: it is the coordinator process
// of the crash tests, which resumes (or starts) the campaign at crashCkptEnv
// with one in-process worker and dies on the RIPPLE_DIST_CRASH_AFTER hook —
// a hard exit from the committer, no Close, no snapshot.
func TestCrashingCoordinatorHelper(t *testing.T) {
	path := os.Getenv(crashCkptEnv)
	if path == "" {
		t.Skip("helper process for the crash tests")
	}
	n, err := strconv.Atoi(os.Getenv(crashGridsEnv))
	if err != nil {
		t.Fatal(err)
	}
	grids := crashCampaign()[:n]
	ck, wal, err := OpenPersistence(path, true)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(Options{Checkpoint: ck, WAL: wal})
	startWorker(c, "crash-worker", grids)
	for _, g := range grids {
		if _, err := ExecuteGrid(c, g); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("the campaign finished: the crash hook did not fire")
}

// crashCoordinator runs the helper over the first grids of crashCampaign and
// requires it to die on the crash hook after `after` cells counted.
func crashCoordinator(t *testing.T, ckptPath string, grids, after int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashingCoordinatorHelper$")
	cmd.Env = append(os.Environ(), crashCkptEnv+"="+ckptPath,
		crashGridsEnv+"="+strconv.Itoa(grids), crashAfterEnv+"="+strconv.Itoa(after))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != killExitCode {
		t.Fatalf("coordinator process: %v, want the crash hook's exit %d\n%s", err, killExitCode, out)
	}
}

// countingWorker is a well-behaved worker over the grids, counting the
// cells it executes.
func countingWorker(t *testing.T, c *Coordinator, ran *int32, grids []*campaign.Grid) chan error {
	t.Helper()
	var sets []sizedCells
	for _, g := range grids {
		plan, err := g.Plan()
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, countingCells{GridCells{Plan: plan, Pool: pool.New(1)}, ran})
	}
	return serveCells(c, "counting", sets...)
}

// cellsOnDisk is how many distinct cells of grid fp the checkpoint file and
// the journal hold between them — what a resume at this instant would not
// run again. It may run while the coordinator writes: the journal is read
// first, so a compaction between the two reads is one whose snapshot the
// second read finds in place.
func cellsOnDisk(t *testing.T, ckptPath, fp string, numCells int) int {
	t.Helper()
	have := make([]bool, numCells)
	data, err := os.ReadFile(ckptPath + ".wal")
	if err != nil {
		t.Errorf("journal on disk: %v", err)
	}
	recs, _, err := decodeWAL(data)
	if err != nil {
		t.Errorf("journal on disk: %v", err)
	}
	ck, err := LoadCheckpoint(ckptPath)
	switch {
	case err == nil:
		// Count from the index LoadCheckpoint built in its one read of the
		// file, every record decoded and checked. restore would open the
		// path again, and a snapshot renamed into place in between would
		// hand it another file's bytes at this file's offsets.
		for _, c := range ck.grids[fp] {
			if c >= 0 && c < numCells {
				have[c] = true
			}
		}
	case !errors.Is(err, fs.ErrNotExist):
		t.Errorf("checkpoint on disk: %v", err)
	}
	n := 0
	for _, r := range recs {
		if r.Grid == fp && r.Cell >= 0 && r.Cell < numCells {
			have[r.Cell] = true
		}
	}
	for _, ok := range have {
		if ok {
			n++
		}
	}
	return n
}

// fatCells is a CellSet whose payloads are large enough that a few dozen
// cells take the journal past snapshotFloor.
type fatCells struct {
	fp      string
	n, size int
}

func (f fatCells) Fingerprint() string { return f.fp }
func (f fatCells) NumCells() int       { return f.n }
func (f fatCells) RunCell(c int) (any, map[string]stats.State, error) {
	var w stats.Welford
	w.Add(float64(c))
	return f.payload(c), map[string]stats.State{"v": w.State()}, nil
}
func (f fatCells) payload(c int) string { return strings.Repeat(string(rune('a'+c%26)), f.size) }

// serveCells runs a well-behaved worker over an in-process pipe through the
// given cell sets in order.
func serveCells(c *Coordinator, name string, sets ...sizedCells) chan error {
	errc := make(chan error, 1)
	cli, srv := net.Pipe()
	go c.Serve(NewConn(srv))
	go func() {
		defer cli.Close()
		w, err := NewWorker(cli, name)
		for _, src := range sets {
			if err != nil {
				break
			}
			err = w.ServeGrid(src)
		}
		errc <- err
	}()
	return errc
}

// TestCellCountsOnlyOnceDurable is the durability order, observed from
// outside: every time Progress fires, the files on disk must already hold at
// least as many cells of the grid as Progress counts — it fails on a
// coordinator that counts a cell before the fsync covering it. Between
// Progress calls a second observer keeps reading the files and holds them to
// the last count — which catches, on most runs, a coordinator that drops
// records from the journal before the snapshot holding them is in place (no
// Progress fires in that window). The payloads are fat so the campaign
// crosses snapshotFloor several times: the snapshots taken on the way must
// be few and doubling, not one per grid.
func TestCellCountsOnlyOnceDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	ck, wal, err := OpenPersistence(path, false)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(Options{Checkpoint: ck, WAL: wal, Logf: t.Logf})
	var sets []sizedCells
	for i := 1; i <= 6; i++ {
		sets = append(sets, fatCells{fp: fmt.Sprintf("fat-%d", i), n: 14, size: 64 << 10})
	}
	var workers []chan error
	for i := 0; i < 3; i++ {
		workers = append(workers, serveCells(c, fmt.Sprintf("w%d", i), sets...))
	}

	// counted is the grid in progress and how many of its cells Progress
	// has counted, for the observer between the calls.
	type count struct {
		fp      string
		n, done int
	}
	var counted atomic.Pointer[count]
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if at := counted.Load(); at != nil {
				if have := cellsOnDisk(t, path, at.fp, at.n); have < at.done {
					t.Errorf("grid %s: %d cells counted, the files hold %d between two Progress calls", at.fp, at.done, have)
				}
			}
		}
	}()

	var snapshots []int64 // sizes of the checkpoint files seen, in order
	compactions := 0
	var journal os.FileInfo // a compaction renames a new file into place
	for _, src := range sets {
		fp, n := src.Fingerprint(), src.NumCells()
		calls := 0
		out, err := c.RunGrid(GridSpec{Fingerprint: fp, NumCells: n, RunsPerCell: 1,
			Progress: func(done, total int) {
				if calls++; done != calls || total != n {
					t.Errorf("grid %s: Progress(%d, %d) on call %d of %d", fp, done, total, calls, n)
				}
				if have := cellsOnDisk(t, path, fp, n); have < done {
					t.Errorf("grid %s: Progress counts %d cells, the files hold %d", fp, done, have)
				}
				counted.Store(&count{fp, n, done})
				if fi, err := os.Stat(path); err == nil &&
					(len(snapshots) == 0 || snapshots[len(snapshots)-1] != fi.Size()) {
					snapshots = append(snapshots, fi.Size())
				}
				if fi, err := os.Stat(path + ".wal"); err == nil {
					if journal != nil && !os.SameFile(journal, fi) {
						compactions++
					}
					journal = fi
				}
			}})
		if err != nil {
			t.Fatal(err)
		}
		if calls != n {
			t.Errorf("grid %s: Progress fired %d times for %d cells", fp, calls, n)
		}
		for i, p := range out.Payloads {
			if want, _ := json.Marshal(src.(fatCells).payload(i)); string(p) != string(want) {
				t.Errorf("grid %s: payload %d differs", fp, i)
			}
		}
	}
	for i, w := range workers {
		if err := <-w; err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	c.Close()
	close(stop)
	<-stopped
	wal.Close()

	final, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snapshots) < 2 || compactions < 2 {
		t.Fatalf("%d snapshots (sizes %v) and %d compactions seen before Close: the campaign never exercised them",
			len(snapshots), snapshots, compactions)
	}
	var written int64
	for i, size := range snapshots {
		written += size
		if i > 0 && size < snapshots[i-1]*3/2 {
			t.Errorf("snapshot sizes %v: not doubling", snapshots)
		}
	}
	if written > 2*final.Size() {
		t.Errorf("snapshots before Close wrote %d bytes (sizes %v) for a %d-byte campaign: more than twice its size",
			written, snapshots, final.Size())
	}
}

// TestFinishedCampaignAtRest: after Close a finished campaign is a complete
// checkpoint and an empty journal, and resuming it leases nothing.
func TestFinishedCampaignAtRest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	sets := []sizedCells{
		fakeCells{fp: "rest-1", n: 5, fail: -1},
		fakeCells{fp: "rest-2", n: 9, fail: -1},
		fakeCells{fp: "rest-3", n: 3, fail: -1},
	}
	run := func(resume bool) (ran int32, log string) {
		ck, wal, err := OpenPersistence(path, resume)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var sb strings.Builder
		c := NewCoordinator(Options{Checkpoint: ck, WAL: wal, Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(&sb, format+"\n", args...)
		}})
		counted := make([]sizedCells, len(sets))
		for i, src := range sets {
			counted[i] = countingCells{src, &ran}
		}
		worker := serveCells(c, "w", counted...)
		for _, src := range sets {
			out, err := c.RunGrid(GridSpec{Fingerprint: src.Fingerprint(), NumCells: src.NumCells(), RunsPerCell: 1})
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range out.Payloads {
				if string(p) != fmt.Sprintf("[%d]", i) {
					t.Errorf("grid %s: payload %d = %s", src.Fingerprint(), i, p)
				}
			}
		}
		if err := <-worker; err != nil {
			t.Fatal(err)
		}
		c.Close()
		c.Close() // safe to call twice
		wal.Close()
		mu.Lock()
		defer mu.Unlock()
		return atomic.LoadInt32(&ran), sb.String()
	}
	atRest := func(when string) {
		t.Helper()
		if fi, err := os.Stat(path + ".wal"); err != nil || fi.Size() != 0 {
			t.Fatalf("%s: journal holds %d bytes (%v), want an empty file", when, fi.Size(), err)
		}
		for _, src := range sets {
			if have := cellsOnDisk(t, path, src.Fingerprint(), src.NumCells()); have != src.NumCells() {
				t.Fatalf("%s: checkpoint holds %d of grid %s's %d cells", when, have, src.Fingerprint(), src.NumCells())
			}
		}
	}
	if ran, _ := run(false); ran != 5+9+3 {
		t.Fatalf("first run executed %d cells, want 17", ran)
	}
	atRest("after Close")
	ran, log := run(true)
	if ran != 0 {
		t.Errorf("resuming a finished campaign executed %d cells", ran)
	}
	for _, want := range []string{"rest-1: restored 5/5", "rest-2: restored 9/9", "rest-3: restored 3/3"} {
		if !strings.Contains(log, want) {
			t.Errorf("resume log lacks %q:\n%s", want, log)
		}
	}
	atRest("after the resume")
}

// TestResumeAfterSnapshotLag crashes a coordinator process after grid 2 of 3
// with no snapshot since grid 1: the checkpoint holds grid 1, the journal
// grid 2, and neither anything of grid 3. The resume restores grid 1 from
// the one and grid 2 from the other, executes grid 3 only, and every grid's
// result equals an uninterrupted in-process run.
func TestResumeAfterSnapshotLag(t *testing.T) {
	grids := crashCampaign()
	path := filepath.Join(t.TempDir(), "ckpt.json")

	// Grid 1, shut down in good order: the snapshot Close writes.
	ck, wal, err := OpenPersistence(path, false)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(Options{Checkpoint: ck, WAL: wal})
	worker := startWorker(c, "w", grids[:1])
	if _, err := ExecuteGrid(c, grids[0]); err != nil {
		t.Fatal(err)
	}
	if err := <-worker; err != nil {
		t.Fatal(err)
	}
	c.Close()
	wal.Close()

	// Grid 2 in a process that dies when its last cell has counted.
	var plans []*campaign.Plan
	for _, g := range grids {
		plan, err := g.Plan()
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, plan)
	}
	crashCoordinator(t, path, 3, plans[1].NumCells())
	for i, want := range []int{plans[0].NumCells(), plans[1].NumCells(), 0} {
		if have := cellsOnDisk(t, path, plans[i].Fingerprint(), plans[i].NumCells()); have != want {
			t.Fatalf("after the crash the files hold %d cells of grid %d, want %d", have, i+1, want)
		}
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.grids) != 1 {
		t.Fatalf("the checkpoint holds %d grids after the crash: a snapshot was taken since grid 1, the test shows nothing", len(loaded.grids))
	}

	ck, wal, err = OpenPersistence(path, true)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var log strings.Builder
	c = NewCoordinator(Options{Checkpoint: ck, WAL: wal, Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(&log, format+"\n", args...)
	}})
	var ran int32
	worker = countingWorker(t, c, &ran, grids)
	for i, g := range grids {
		want, err := g.Run()
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExecuteGrid(c, g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("grid %d: resumed result differs from an in-process run", i+1)
		}
	}
	if err := <-worker; err != nil {
		t.Fatal(err)
	}
	c.Close()
	wal.Close()
	if want := plans[2].NumCells(); int(ran) != want {
		t.Errorf("the resume executed %d cells, want grid 3's %d and none that was journalled", ran, want)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, want := range []string{
		fmt.Sprintf("grid %s: restored %d/%d cells from checkpoint", plans[0].Fingerprint(), plans[0].NumCells(), plans[0].NumCells()),
		fmt.Sprintf("grid %s: replayed %d cells from WAL", plans[1].Fingerprint(), plans[1].NumCells()),
	} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("resume log lacks %q:\n%s", want, log.String())
		}
	}
}

// dupWorker speaks the protocol by hand and delivers every cell it is leased
// twice, back to back — the second copy arrives while the first is still
// queued for the journal — and then once more under a lease id nobody holds.
func dupWorker(c *Coordinator, name string, src sizedCells) chan error {
	errc := make(chan error, 1)
	cli, srv := net.Pipe()
	go c.Serve(NewConn(srv))
	go func() {
		defer cli.Close()
		conn := NewConn(cli)
		err := conn.Send(&Message{Type: MsgHello, Proto: ProtoVersion, Worker: name})
		for err == nil {
			if err = conn.Send(&Message{Type: MsgReady, Grid: src.Fingerprint()}); err != nil {
				break
			}
			var m *Message
			if m, err = conn.Recv(); err != nil || m.Type != MsgLease {
				break
			}
			for _, cell := range m.Cells {
				payload, st, _ := src.RunCell(cell)
				raw, _ := json.Marshal(payload)
				for _, lease := range []int{m.Lease, m.Lease, -1} {
					if err = conn.Send(&Message{Type: MsgCell, Grid: src.Fingerprint(), Lease: lease,
						Cell: cell, Payload: raw, Stats: st}); err != nil {
						break
					}
				}
			}
		}
		errc <- err
	}()
	return errc
}

// TestConcurrentDuplicateDeliveries: eight workers deliver one grid at once,
// each cell three times over. Every cell must be journalled once, counted
// once and present once in the output. Run under -race in CI.
func TestConcurrentDuplicateDeliveries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	ck, wal, err := OpenPersistence(path, false)
	if err != nil {
		t.Fatal(err)
	}
	src := fakeCells{fp: "dups", n: 200, fail: -1}
	c := NewCoordinator(Options{Checkpoint: ck, WAL: wal})
	var workers []chan error
	for i := 0; i < 8; i++ {
		workers = append(workers, dupWorker(c, fmt.Sprintf("dup-%d", i), src))
	}
	calls := 0
	out, err := c.RunGrid(GridSpec{Fingerprint: src.fp, NumCells: src.n, RunsPerCell: 1,
		Progress: func(done, total int) {
			if calls++; done != calls {
				t.Errorf("Progress(%d) on call %d", done, calls)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != src.n {
		t.Errorf("Progress fired %d times for %d cells", calls, src.n)
	}
	for i, p := range out.Payloads {
		if string(p) != fmt.Sprintf("[%d]", i) {
			t.Errorf("payload %d = %s", i, p)
		}
	}
	// The grid is small: nothing has been compacted, the journal is the
	// record of what was recorded.
	data, err := os.ReadFile(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := decodeWAL(data)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]int, src.n)
	for _, r := range recs {
		seen[r.Cell]++
	}
	for cell, n := range seen {
		if n != 1 {
			t.Errorf("cell %d journalled %d times", cell, n)
		}
	}
	c.Close()
	for i, w := range workers {
		if err := <-w; err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	wal.Close()
	if have := cellsOnDisk(t, path, src.fp, src.n); have != src.n {
		t.Errorf("after Close the files hold %d of %d cells", have, src.n)
	}
}

// TestRacedCellCountsOnce: a cell whose deadline passed is out with two
// workers. The stalled worker's late delivery counts if it lands first and
// is dropped if it lands second; either way the cell is journalled once,
// counted once and present once in the output.
func TestRacedCellCountsOnce(t *testing.T) {
	for _, lateFirst := range []bool{true, false} {
		name := "late delivery second"
		if lateFirst {
			name = "late delivery first"
		}
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ckpt.json")
			ck, wal, err := OpenPersistence(path, false)
			if err != nil {
				t.Fatal(err)
			}
			src := fakeCells{fp: "raced", n: 3, fail: -1}
			log := &raceLog{t: t}
			c := NewCoordinator(Options{Checkpoint: ck, WAL: wal, Logf: log.logf})
			c.floor = 30 * time.Millisecond
			counted := make(chan int, src.n)
			type gridResult struct {
				out *GridOutput
				err error
			}
			resc := make(chan gridResult, 1)
			go func() {
				out, err := c.RunGrid(GridSpec{Fingerprint: src.fp, NumCells: src.n, RunsPerCell: 1,
					Progress: func(done, total int) { counted <- done }})
				resc <- gridResult{out, err}
			}()

			// Cell 0 delivered: the grid has a cell time. Cell 1 stalls with
			// one worker; the racer holds cell 2 back so that the grid stays
			// open, and asks on until it is granted cell 1 as well — both
			// cells pass their deadline, in either order.
			first := newHandWorker(t, c, "first")
			first.deliver(src, first.take(src.fp))
			stalled := newHandWorker(t, c, "stalled")
			if cell := stalled.take(src.fp); cell != 1 {
				t.Fatalf("stalled worker was granted cell %d, want 1", cell)
			}
			racer := newHandWorker(t, c, "racer")
			if cell := racer.take(src.fp); cell != 2 {
				t.Fatalf("racer was granted cell %d, want 2", cell)
			}
			for racer.take(src.fp) != 1 {
			}
			winner, loser := racer, stalled
			if lateFirst {
				winner, loser = stalled, racer
			}
			winner.deliver(src, 1)
			for done := range counted {
				if done == 2 {
					break // cells 0 and 1 count: the second copy of 1 comes second
				}
			}
			loser.deliver(src, 1)
			// The grid's last cell follows the duplicate on the same
			// connection: the duplicate has been dealt with when the grid
			// completes.
			loser.deliver(src, 2)

			r := <-resc
			if r.err != nil {
				t.Fatal(r.err)
			}
			for i, p := range r.out.Payloads {
				if string(p) != fmt.Sprintf("[%d]", i) {
					t.Errorf("payload %d = %s", i, p)
				}
			}
			if n := <-counted; n != src.n {
				t.Errorf("Progress counted to %d after the grid's %d cells", n, src.n)
			}
			data, err := os.ReadFile(path + ".wal")
			if err != nil {
				t.Fatal(err)
			}
			recs, _, err := decodeWAL(data)
			if err != nil {
				t.Fatal(err)
			}
			seen := make([]int, src.n)
			for _, r := range recs {
				seen[r.Cell]++
			}
			for cell, n := range seen {
				if n != 1 {
					t.Errorf("cell %d journalled %d times", cell, n)
				}
			}
			c.Close()
			wal.Close()
		})
	}
}
