package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ripple/internal/stats"
)

// Where a finished cell lives: the tests of this file hold what a finished
// grid is, once RunGrid has returned it, from outside — run again, written
// to the checkpoint, resumed.

// runCampaign runs grids in order on c with workers in-process workers,
// each traversing the same sequence, and returns every grid's output.
func runCampaign(t *testing.T, c *Coordinator, workers int, grids ...sizedCells) []*GridOutput {
	t.Helper()
	var errs []chan error
	for i := range workers {
		errs = append(errs, serveCells(c, fmt.Sprintf("w%d", i), grids...))
	}
	var outs []*GridOutput
	for _, src := range grids {
		out, err := c.RunGrid(GridSpec{Fingerprint: src.Fingerprint(), NumCells: src.NumCells(), RunsPerCell: 1})
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	for i, w := range errs {
		if err := <-w; err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	return outs
}

// logTo returns a Logf that collects the coordinator's log lines in sb.
func logTo(sb *strings.Builder) func(string, ...any) {
	var mu sync.Mutex
	return func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(sb, format+"\n", args...)
	}
}

// A grid that the campaign asks for again, after another, comes back as the
// same output, whether the coordinator persists or not; the workers traverse
// the same sequence, the repeat included.
func TestFinishedGridRunAgain(t *testing.T) {
	a := fakeCells{fp: "again-a", n: 7, fail: -1}
	b := fatCells{fp: "again-b", n: 5, size: 1 << 10}
	for _, persist := range []bool{false, true} {
		t.Run(fmt.Sprintf("persist=%v", persist), func(t *testing.T) {
			var opt Options
			if persist {
				ck, wal, err := OpenPersistence(filepath.Join(t.TempDir(), "ckpt.json"), false)
				if err != nil {
					t.Fatal(err)
				}
				defer wal.Close()
				opt.Checkpoint, opt.WAL = ck, wal
			}
			c := NewCoordinator(opt)
			defer c.Close()
			outs := runCampaign(t, c, 2, a, b, a, b)
			for i := range 2 {
				if !reflect.DeepEqual(outs[i], outs[i+2]) {
					t.Errorf("grid %d run again: %+v, first time %+v", i, outs[i+2], outs[i])
				}
			}
			if len(outs[0].Payloads) != a.n || outs[0].Stats == nil {
				t.Fatalf("grid a: %d payloads and stats %v", len(outs[0].Payloads), outs[0].Stats)
			}
		})
	}
}

// wantFrames is what a checkpoint holds for the grids, every cell done:
// one journal frame per cell, the JSON of its record, grids in fingerprint
// order and cells in index order.
func wantFrames(t *testing.T, grids ...sizedCells) []byte {
	t.Helper()
	grids = slices.Clone(grids)
	slices.SortFunc(grids, func(a, b sizedCells) int { return strings.Compare(a.Fingerprint(), b.Fingerprint()) })
	var frames bytes.Buffer
	for _, src := range grids {
		for i := range src.NumCells() {
			payload, st, err := src.RunCell(i)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(payload)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(walRecord{Grid: src.Fingerprint(), Cell: i, Payload: raw, Stats: st})
			if err != nil {
				t.Fatal(err)
			}
			frames.WriteString(strconv.Itoa(len(b)) + "\n")
			frames.Write(b)
			frames.WriteByte('\n')
		}
	}
	return frames.Bytes()
}

// The checkpoint a persisting coordinator leaves holds, behind its version
// line, exactly the frames of wantFrames — across snapshots taken on the
// way, a resume that restores two grids from the file and runs a third, and
// fingerprints whose order is not the order they ran in.
func TestCheckpointFramesAreTheJournals(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	grids := []sizedCells{
		fatCells{fp: "frames-c", n: 14, size: 64 << 10},
		fatCells{fp: "frames-a\"<&>", n: 9, size: 64 << 10},
		fakeCells{fp: "frames-b", n: 6, fail: -1},
	}
	phase := func(resume bool, grids ...sizedCells) {
		ck, wal, err := OpenPersistence(path, resume)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCoordinator(Options{Checkpoint: ck, WAL: wal})
		runCampaign(t, c, 2, grids...)
		c.Close()
		wal.Close()
	}
	phase(false, grids[:2]...)
	phase(true, grids...)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line, body, _ := bytes.Cut(data, []byte("\n"))
	if !bytes.HasPrefix(line, []byte(`{"version":`)) {
		t.Fatalf("version line %q", line)
	}
	if want := wantFrames(t, grids...); !bytes.Equal(body, want) {
		t.Fatalf("the checkpoint's frames (%d bytes) differ from the journal frames of its cells (%d bytes)",
			len(body), len(want))
	}
}

// A campaign large enough that snapshots are taken on the way ends with
// one more, in Close, written while both the checkpoint file and the
// journal hold frames. A resume from it restores every cell of every grid
// from the checkpoint, replays none from the journal, runs none, and
// returns the outputs of the first run.
func TestResumeAcrossCopiedSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	var grids []sizedCells
	for i := range 3 {
		grids = append(grids, fatCells{fp: fmt.Sprintf("copied-%d", i), n: 14, size: 64 << 10})
	}
	ck, wal, err := OpenPersistence(path, false)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(Options{Checkpoint: ck, WAL: wal})
	first := runCampaign(t, c, 2, grids...)
	for _, file := range []string{path, path + ".wal"} {
		if fi, err := os.Stat(file); err != nil || fi.Size() == 0 {
			t.Fatalf("before Close %s is empty (%v): the last snapshot does not merge two files, the test shows nothing", file, err)
		}
	}
	c.Close()
	wal.Close()

	ck, wal, err = OpenPersistence(path, true)
	if err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	c = NewCoordinator(Options{Checkpoint: ck, WAL: wal, Logf: logTo(&log)})
	var ran int32
	counted := make([]sizedCells, len(grids))
	for i, src := range grids {
		counted[i] = countingCells{src, &ran}
	}
	again := runCampaign(t, c, 1, counted...)
	c.Close()
	wal.Close()
	if n := atomic.LoadInt32(&ran); n != 0 {
		t.Errorf("the resume ran %d cells", n)
	}
	if !reflect.DeepEqual(again, first) {
		t.Error("the resumed outputs differ from the first run's")
	}
	for _, src := range grids {
		want := fmt.Sprintf("grid %s: restored %d/%d cells from checkpoint", src.Fingerprint(), src.NumCells(), src.NumCells())
		if !strings.Contains(log.String(), want) {
			t.Errorf("resume log lacks %q:\n%s", want, log.String())
		}
	}
	if strings.Contains(log.String(), "replayed") {
		t.Errorf("the resume replayed cells from the journal:\n%s", log.String())
	}
}

// pacedCells hands out its cells one at a time: RunCell waits until the
// previous cell has counted (release, from Progress), so that the committer
// journals one cell per batch and no buffer of the coordinator grows with
// how many cells a batch happens to take.
type pacedCells struct {
	fatCells
	turn chan struct{}
}

func (p pacedCells) RunCell(c int) (any, map[string]stats.State, error) {
	<-p.turn
	return p.fatCells.RunCell(c)
}

func (p pacedCells) release(done, total int) { p.turn <- struct{}{} }

// liveHeap is the least heap in use over six collections. A pooled buffer
// survives the two collections after its last use, and the in-process
// worker is still sending its next ready as the grid it served completes:
// its encoder's pooled buffer, a payload's size, is live for the first of
// them and freed by the last.
func liveHeap() uint64 {
	low := uint64(math.MaxUint64)
	for range 6 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		low = min(low, m.HeapAlloc)
	}
	return low
}

// The coordinator's invariant as a budget: a persisting coordinator keeps
// no finished cell in memory. Grids of fat payloads run through it and an
// in-process worker, past the snapshot floor several times; after a
// collection the live heap has grown by less than 1 KiB per finished cell,
// whatever the payload size — the index of where each cell lies, and no
// byte of its record. A coordinator that kept the payloads would grow by
// their size.
func TestFinishedCellsLeaveTheHeap(t *testing.T) {
	for _, size := range []int{64 << 10, 256 << 10} {
		t.Run(fmt.Sprintf("payload=%dKiB", size>>10), func(t *testing.T) {
			ck, wal, err := OpenPersistence(filepath.Join(t.TempDir(), "ckpt.json"), false)
			if err != nil {
				t.Fatal(err)
			}
			c := NewCoordinator(Options{Checkpoint: ck, WAL: wal})
			// The warm-up reaches the first snapshot and compaction, which
			// allocate the buffers they keep.
			const cells = 12
			warm, grids := (2<<20)/(cells*size)+1, (6<<20)/(cells*size)+2
			turn := make(chan struct{}, 1)
			turn <- struct{}{}
			var sets []pacedCells
			var all []sizedCells
			// One grid more than measured: the worker waits for it while
			// the heap is read, as it waits for the first measured one.
			for g := range warm + grids + 1 {
				p := pacedCells{fatCells{fp: fmt.Sprintf("heap-%d", g), n: cells, size: size}, turn}
				sets, all = append(sets, p), append(all, p)
			}
			worker := serveCells(c, "w", all...)
			run := func(sets []pacedCells) {
				for _, p := range sets {
					if _, err := c.RunGrid(GridSpec{Fingerprint: p.fp, NumCells: p.n, RunsPerCell: 1, Progress: p.release}); err != nil {
						t.Fatal(err)
					}
				}
			}
			run(sets[:warm])
			before := liveHeap()
			run(sets[warm : warm+grids])
			after := liveHeap()
			run(sets[warm+grids:])
			if err := <-worker; err != nil {
				t.Fatal(err)
			}
			c.Close()
			wal.Close()
			if ck.Size() == 0 {
				t.Fatal("no snapshot was taken: the campaign shows nothing")
			}
			n := grids * cells
			perCell := (float64(after) - float64(before)) / float64(n)
			t.Logf("%d cells of %d KiB: live heap %+.0f B per cell", n, size>>10, perCell)
			if perCell >= 1024 {
				t.Errorf("the live heap grew by %.0f B per finished cell of %d KiB, want under 1 KiB", perCell, size>>10)
			}
		})
	}
}
