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
	"ripple/internal/israce"
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
// (TestSteadyStateAllocatesNothingPerEvent in internal/network), and
// network.Run keeps the run it assembled — engine, medium, pools, agents,
// transports — and resets it for the next, so what these count is: for a
// run after a run, what is the run's own and not the arena's; for the
// suite, its ~950 cells × 3 seeds at 50 ms, each run on the arena the one
// before it left, plus the cells' worlds and the result fold. Which arena a
// run gets depends on the order of the calls alone, so the counts repeat:
// the suite read 30,243 objects in a process that had run nothing else and
// 25,26x on every pass after that; then 20,238 and 80 for the run after a
// run, before fault transitions, web transfers, NAV expiries and route
// paths stopped allocating per run; now 19,553 and 79. Each budget is the
// measured number × 1.25. A pool, a slab or a bound callback rebuilt per run costs the second
// run hundreds of objects and the suite hundreds of thousands — it read
// 577,538 before runs were kept — and fails here. What a run allocates on a
// new arena is held where a new arena can be asked for:
// TestArenaAllocationBudgets in internal/network.
func TestSetupAllocationBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole figure suite")
	}
	if os.Getenv("RIPPLE_AUDIT") != "" {
		t.Skip("the deep audit quarantines released frames instead of reusing them")
	}
	if israce.Enabled {
		t.Skip("the race detector allocates per goroutine: the counts are its, not the program's")
	}
	mallocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	check := func(what string, n, budget uint64) {
		if n > budget {
			t.Errorf("%s allocated %d objects, budget %d", what, n, budget)
		} else {
			t.Logf("%s: %d objects", what, n)
		}
	}
	// Whatever arena this run finds, the next finds the one it leaves. Of
	// that run's 79 objects nearly all are the public API's — the line
	// topology, the scenario's campaign plan and pool job, the public Result
	// with its per-flow metrics and labels — and the World network.Run
	// builds when it is handed none (link plan, grid, route); a few are the
	// run's own: its copy of the Config, validate's flow-ID set, the Result
	// and its flow slice.
	engineRun(t)
	check("one saturated 3-hop run on the arena the run before it left", mallocs(func() { engineRun(t) }), 99)
	// One worker, so one arena: every run of the suite on what the run
	// before it left.
	check("the figure suite at 50 ms", mallocs(func() { suitePass(t, 1, 50*sim.Millisecond) }), 24_441)
}
