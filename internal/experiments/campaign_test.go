package experiments

import (
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ripple/internal/campaign/pool"
	"ripple/internal/israce"
	"ripple/internal/routing"
	"ripple/internal/sim"
)

// TestDriverDeterministicAcrossWorkerCounts is the campaign determinism
// guarantee at the driver level: the same grid and seeds must produce an
// identical table (cells and CIs) with one worker and with many — the
// -parallel flag may never change the numbers.
func TestDriverDeterministicAcrossWorkerCounts(t *testing.T) {
	opt := Options{Seeds: []uint64{1, 2, 3}, Duration: 400 * sim.Millisecond}
	opt.Pool = pool.New(1)
	serial, err := fig34("fig3a", routing.Route0(), 1e-6, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Pool = pool.New(8)
	wide, err := fig34("fig3a", routing.Route0(), 1e-6, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Fatalf("tables diverge across worker counts:\n%s\nvs\n%s",
			serial.Format(), wide.Format())
	}
}

// TestMultiSeedTablesCarryCIs asserts that every cell of a multi-seed
// table reports a 95% confidence half-width and that single-seed tables
// stay CI-free.
func TestMultiSeedTablesCarryCIs(t *testing.T) {
	multi, err := Motivation(Options{Seeds: []uint64{1, 2}, Duration: 400 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range multi.Rows {
		if len(r.CIs) != len(r.Cells) {
			t.Fatalf("row %s: %d CIs for %d cells", r.Label, len(r.CIs), len(r.Cells))
		}
		for _, ci := range r.CIs {
			if ci < 0 {
				t.Fatalf("row %s: negative CI %v", r.Label, ci)
			}
		}
	}
	if out := multi.Format(); !strings.Contains(out, "±") {
		t.Fatalf("multi-seed Format misses CIs:\n%s", out)
	}
	if israce.Enabled {
		return // the single-seed table is the shared quick run's
	}
	for _, r := range quickTable(t, "motivation").Rows {
		if r.CIs != nil {
			t.Fatalf("single-seed row %s carries CIs", r.Label)
		}
	}
}

// TestSuiteGoroutinesBoundedByPool runs the full figure suite on a small
// dedicated pool while sampling the process goroutine count: the batch
// engine may add at most workers-1 helper goroutines above the baseline,
// no matter how many cells the grids expand to (the seed implementation
// spawned one goroutine per seed with no cap).
func TestSuiteGoroutinesBoundedByPool(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps the full suite")
	}
	const workers = 3
	opt := Options{
		Seeds:    []uint64{1, 2},
		Duration: 100 * sim.Millisecond,
		Pool:     pool.New(workers),
	}
	base := runtime.NumGoroutine()
	var peak atomic.Int64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
				n := int64(runtime.NumGoroutine())
				for {
					old := peak.Load()
					if n <= old || peak.CompareAndSwap(old, n) {
						break
					}
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	for _, r := range All() {
		if _, err := r.Run(opt); err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
	}
	close(stop)
	<-sampled
	// Budget: baseline + the caller + (workers-1) helpers + the sampler,
	// plus slack for runtime bookkeeping goroutines.
	limit := int64(base + workers + 3)
	if got := peak.Load(); got > limit {
		t.Fatalf("peak goroutines %d exceeds pool bound %d (baseline %d, workers %d)",
			got, limit, base, workers)
	}
}

// TestOptionsProgressIsForwarded wires Options.Progress through a driver
// and checks every unit reports.
func TestOptionsProgressIsForwarded(t *testing.T) {
	var last, calls int
	opt := Options{
		Seeds:    []uint64{1},
		Duration: 200 * sim.Millisecond,
		Progress: func(done, total int) {
			calls++
			last = total
		},
	}
	if _, err := Motivation(opt); err != nil {
		t.Fatal(err)
	}
	// Motivation is 3 rows × 1 run (PerRow) × 1 seed.
	if calls != 3 || last != 3 {
		t.Fatalf("progress calls/total = %d/%d, want 3/3", calls, last)
	}
}
