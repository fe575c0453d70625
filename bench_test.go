package ripple

// The two root-package benchmarks are the pprof entry points docs/perf.md
// uses — one saturated run, and the whole figure suite through the pool —
// and the tests below hold their allocation budgets in tier-1. Numbers for
// a performance claim come from bench/ (BENCHMARK.json), not from here.

import (
	"os"
	"runtime"
	"testing"

	"ripple/internal/campaign/pool"
	"ripple/internal/experiments"
	"ripple/internal/sim"
)

// suitePass runs the full figure suite (every driver, every cell, three
// seeds) through a pool of the given size on a short per-run budget, and
// returns the number of completed seed-runs.
func suitePass(tb testing.TB, workers int, dur sim.Time) int {
	runs := 0
	opt := experiments.Options{
		Seeds:    []uint64{1, 2, 3},
		Duration: dur,
		Pool:     pool.New(workers),
		Progress: func(done, total int) { runs++ },
	}
	for _, r := range experiments.All() {
		if _, err := r.Run(opt); err != nil {
			tb.Fatal(err)
		}
	}
	return runs
}

// BenchmarkCampaignSuitePooled is the campaign engine as shipped: every
// cell of every experiment drains through one GOMAXPROCS-sized pool, so
// scheme columns and rows of the same figure overlap. Completed seed-runs
// are reported as runs/sec, so setup amortisation (world snapshots shared
// across each cell's seeds) is visible, not just ns/op.
func BenchmarkCampaignSuitePooled(b *testing.B) {
	dur := 150 * sim.Millisecond
	if testing.Short() {
		dur = 50 * sim.Millisecond
	}
	runs := 0
	for i := 0; i < b.N; i++ {
		runs += suitePass(b, runtime.GOMAXPROCS(0), dur)
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(runs)/secs, "runs/sec")
	}
}

// engineRun is one saturated 3-hop RIPPLE second through the public API.
func engineRun(tb testing.TB) *Result {
	top, path := LineTopology(3)
	res, err := Run(Scenario{
		Topology: top,
		Scheme:   SchemeRIPPLE,
		Flows:    []Flow{{ID: 1, Path: path, Traffic: FTP{}}},
		Duration: Second,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// BenchmarkEngineThroughput is a micro-benchmark of the simulation core:
// events processed per wall second for a saturated RIPPLE run.
func BenchmarkEngineThroughput(b *testing.B) {
	var events float64
	for i := 0; i < b.N; i++ {
		events += engineRun(b).Events.Mean
	}
	b.ReportMetric(events/float64(b.N), "events/run")
}

// TestSetupAllocationBudgets holds what the two benchmarks above allocate.
// A warmed-up run allocates nothing per packet, frame or timer
// (TestSteadyStateAllocatesNothingPerEvent in internal/network), so what
// these count is set-up and pool warm-up: 543 objects for the one run,
// 669k for the suite's ~950 cells × 3 seeds at 50 ms plus the result fold.
// Each budget sits at 1.5–4× today's number: one allocation per packet or
// per frame coming back costs the run 10,000+ and the suite 1M+ and fails
// here; a few more objects per station in set-up do not.
func TestSetupAllocationBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole figure suite")
	}
	if os.Getenv("RIPPLE_AUDIT") != "" {
		t.Skip("the deep audit quarantines released frames instead of reusing them")
	}
	mallocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	if n := mallocs(func() { engineRun(t) }); n > 2000 {
		t.Errorf("one saturated 3-hop run allocated %d objects, budget 2000", n)
	} else {
		t.Logf("one saturated 3-hop run: %d objects", n)
	}
	if n := mallocs(func() { suitePass(t, runtime.GOMAXPROCS(0), 50*sim.Millisecond) }); n > 1_000_000 {
		t.Errorf("the figure suite at 50 ms allocated %d objects, budget 1,000,000", n)
	} else {
		t.Logf("the figure suite at 50 ms: %d objects", n)
	}
}
