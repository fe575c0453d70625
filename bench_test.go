package ripple

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run `go test -bench=. -benchmem`). Each benchmark executes
// the corresponding experiment end to end per iteration (short runs, one
// seed) and reports headline metrics via b.ReportMetric so regression in
// either speed or *result shape* is visible. The cmd/experiments binary
// runs the same code with the paper's full 10-second, multi-seed settings.

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"ripple/internal/campaign/pool"
	"ripple/internal/experiments"
	"ripple/internal/network"
	"ripple/internal/routing"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

// benchOpt is the per-iteration budget for macro-benchmarks. Under -short
// (the CI bench smoke step) the simulated duration shrinks so every
// benchmark can run once quickly while still exercising the full
// pool/fold path.
func benchOpt() experiments.Options {
	opt := experiments.Options{Seeds: []uint64{1}, Duration: sim.Second}
	if testing.Short() {
		opt.Duration = 100 * sim.Millisecond
	}
	return opt
}

// reportCells publishes selected table cells as benchmark metrics.
func reportCells(b *testing.B, t *experiments.Table, row string, cols ...string) {
	b.Helper()
	for _, c := range cols {
		if v, ok := t.Cell(row, c); ok {
			b.ReportMetric(v, metricName(c+"_"+t.MetricUnit()))
		}
	}
}

// metricName strips characters ReportMetric rejects.
func metricName(s string) string {
	s = strings.ReplaceAll(s, " ", "_")
	s = strings.ReplaceAll(s, "%", "pct")
	s = strings.ReplaceAll(s, "..", "_")
	s = strings.ReplaceAll(s, "/", "_")
	s = strings.ReplaceAll(s, "(", "")
	s = strings.ReplaceAll(s, ")", "")
	return s
}

func BenchmarkMotivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Motivation(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCells(b, tab, "preExOR", "reorder %")
			reportCells(b, tab, "SPR", "Mbps")
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs, err := experiments.Fig3(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCells(b, tabs[0], "1 flow(s)", "D", "A", "R16")
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs, err := experiments.Fig4(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCells(b, tabs[0], "1 flow(s)", "D", "R16")
		}
	}
}

func BenchmarkFig6a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig6a(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCells(b, tab, "10 flows", "DCF", "RIPPLE")
		}
	}
}

func BenchmarkFig6b(b *testing.B) {
	opt := benchOpt()
	opt.Duration = 700 * sim.Millisecond // saturated hidden flows are event-heavy
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig6b(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCells(b, tab, "0 hidden", "RIPPLE")
			reportCells(b, tab, "9 hidden", "RIPPLE", "DCF")
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs, err := experiments.Fig7(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCells(b, tabs[0], "7 hops", "DCF", "RIPPLE")
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig8(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCells(b, tab, "flows 1..30", "DCF", "RIPPLE")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	opt := benchOpt()
	opt.Duration = 2 * sim.Second // VoIP on-off needs a few cycles
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Table3(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCells(b, tab, "RIPPLE", "1e-06/1..30")
			reportCells(b, tab, "DCF", "1e-06/1..30")
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs, err := experiments.Fig10(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCells(b, tabs[2], "1-4-6-8", "DCF", "RIPPLE")
		}
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs, err := experiments.Fig12(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCells(b, tabs[2], "5(1)", "DCF", "RIPPLE")
		}
	}
}

// --- Ablation benches (DESIGN.md §5) ---

func BenchmarkAblationAggLimit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationAggLimit(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCells(b, tab, "agg=1", "R")
			reportCells(b, tab, "agg=16", "R")
		}
	}
}

func BenchmarkAblationForwarders(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationForwarders(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCells(b, tab, "maxfwd=2", "R")
			reportCells(b, tab, "maxfwd=6", "R")
		}
	}
}

func BenchmarkAblationRq(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationRq(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCells(b, tab, "Rq off", "reorder %")
			reportCells(b, tab, "Rq on", "Mbps")
		}
	}
}

func BenchmarkAblationTwoWay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationTwoWay(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCells(b, tab, "two-way", "R")
			reportCells(b, tab, "one-way", "R")
		}
	}
}

func BenchmarkAblationRelayDefer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationRelayDefer(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCells(b, tab, "4 hidden", "defer", "strict")
		}
	}
}

func BenchmarkAblationMultiRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationMultiRate(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCells(b, tab, "multi-rate", "RIPPLE")
			reportCells(b, tab, "fixed 6 Mbps", "RIPPLE")
		}
	}
}

func BenchmarkAblationRTS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationRTS(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCells(b, tab, "6 hidden", "DCF", "DCF+RTS", "RIPPLE")
		}
	}
}

// --- Campaign pool benches ---

// benchCampaignSuite runs the full figure suite (every driver, every cell)
// through a pool of the given size on a short per-run budget. Completed
// seed-runs are counted through the serialized Progress callback and
// reported as runs/sec, so setup amortisation (world snapshots shared
// across each cell's seeds) is visible in the bench JSON, not just ns/op.
func benchCampaignSuite(b *testing.B, workers int) {
	runs := 0
	opt := experiments.Options{
		Seeds:    []uint64{1, 2, 3},
		Duration: 150 * sim.Millisecond,
		Pool:     pool.New(workers),
		Progress: func(done, total int) { runs++ },
	}
	if testing.Short() {
		opt.Duration = 50 * sim.Millisecond
	}
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.All() {
			if _, err := r.Run(opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(runs)/secs, "runs/sec")
	}
}

// BenchmarkCampaignSuitePooled is the campaign engine as shipped: every
// cell of every experiment drains through one GOMAXPROCS-sized pool, so
// scheme columns and rows of the same figure overlap.
func BenchmarkCampaignSuitePooled(b *testing.B) {
	benchCampaignSuite(b, runtime.GOMAXPROCS(0))
}

// worldConfig builds a routing-active scenario over n stations laid out on
// a line at relay spacing, so BuildWorld exercises both the O(N²) radio
// link plan and the ETX table + per-flow Dijkstra.
func worldConfig(n int) network.Config {
	top, path := topology.Line(n - 1)
	return network.Config{
		Positions: top.Positions,
		Scheme:    network.Ripple,
		Flows: []network.FlowSpec{{
			ID:   1,
			Path: routing.Path{path.Src(), path.Dst()},
			Kind: network.FTP,
		}},
		Routing: network.RoutingSpec{Kind: network.RouteETX},
	}
}

// benchWorldBuild measures snapshot construction alone.
func benchWorldBuild(b *testing.B, cfg network.Config) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := network.BuildWorld(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorldBuildFig1 builds the snapshot for a Fig.1-sized topology
// (8 stations): the per-cell cost every campaign cell pays exactly once.
func BenchmarkWorldBuildFig1(b *testing.B) {
	benchWorldBuild(b, worldConfig(len(topology.Fig1().Positions)))
}

// BenchmarkWorldBuildLarge builds the snapshot for a topology 5× the size
// of Fig.1 (40 stations), where the O(N²) matrices and Dijkstra dominate.
func BenchmarkWorldBuildLarge(b *testing.B) {
	benchWorldBuild(b, worldConfig(5*len(topology.Fig1().Positions)))
}

// cityBuildConfig is a 5 000-station city with one ETX-routed flow — just
// enough routing to exercise the table without per-flow Dijkstra noise
// drowning the plan-construction signal.
func cityBuildConfig(pruneSigma float64) network.Config {
	top, _ := topology.CityN(5000, 7)
	rc := topology.CityRadio()
	rc.PruneSigma = pruneSigma
	return network.Config{
		Positions: top.Positions,
		Radio:     rc,
		Scheme:    network.Ripple,
		Flows: []network.FlowSpec{{
			ID:   1,
			Path: routing.Path{0, 5}, // 5 blocks along the first row: multi-hop
			Kind: network.CBRTraffic,
		}},
		Routing: network.RoutingSpec{Kind: network.RouteETX},
	}
}

// BenchmarkWorldBuildCity builds the sparse city snapshot (grid-indexed
// link plan + adjacency ETX table) at N=5000 — the configuration the
// -scaling sweep runs. Compare against BenchmarkWorldBuildCityDense for
// the O(N²)→O(N·k) win in both ns/op and B/op.
func BenchmarkWorldBuildCity(b *testing.B) {
	benchWorldBuild(b, cityBuildConfig(topology.CityPruneSigma))
}

// BenchmarkWorldBuildCityDense is the dense baseline: the identical city
// with pruning off, paying the full N² link plan and ETX matrix.
func BenchmarkWorldBuildCityDense(b *testing.B) {
	benchWorldBuild(b, cityBuildConfig(0))
}

// BenchmarkEpochRebuildCity measures what an epoch boundary costs relative
// to building the 5 000-station city snapshot from scratch. Each iteration
// times the static build, then the same build with Markov mobility (high
// stay probability — the sparse-patch sweet spot) deriving 9 epoch worlds
// incrementally; per-epoch cost is the difference divided by the epoch
// count. The speedup_x metric (scratch ÷ per-epoch) is the incremental
// path's reason to exist and gates at ≥5× in scripts/bench_thresholds.txt.
func BenchmarkEpochRebuildCity(b *testing.B) {
	static := cityBuildConfig(topology.CityPruneSigma)
	static.Duration = 5 * sim.Second
	mobile := static
	mobile.Mobility = network.MobilitySpec{Kind: network.MobilityMarkov, Stay: 0.998}
	epochs := int((mobile.Duration - 1) / network.DefaultMobilityEpoch)
	// Untimed warmup: the first build of the session pays page faults and
	// heap growth that would otherwise swamp a -benchtime 1x ratio.
	if _, err := network.BuildWorld(mobile); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	// The epoch cost is the difference of two large timings, so each
	// iteration takes the minimum of three alternating pairs — the standard
	// noise-robust estimator for a duration (scheduler noise only ever adds
	// time).
	tStatic, tMobile := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < b.N; i++ {
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			if _, err := network.BuildWorld(static); err != nil {
				b.Fatal(err)
			}
			if d := time.Since(start); d < tStatic {
				tStatic = d
			}
			start = time.Now()
			w, err := network.BuildWorld(mobile)
			if err != nil {
				b.Fatal(err)
			}
			if d := time.Since(start); d < tMobile {
				tMobile = d
			}
			if w.Epochs() != epochs {
				b.Fatalf("got %d epochs, want %d", w.Epochs(), epochs)
			}
		}
	}
	perEpoch := (tMobile - tStatic).Seconds() / float64(epochs)
	scratch := tStatic.Seconds()
	if perEpoch <= 0 {
		// Timer noise swallowed the epoch cost entirely; report the cap
		// rather than a nonsensical negative ratio.
		perEpoch = scratch / 1000
	}
	b.ReportMetric(scratch/perEpoch, "speedup_x")
	b.ReportMetric(perEpoch*1e9, "epoch_ns")
}

// BenchmarkEpochWorldMobile1k builds a mobile 1 000-station city world —
// base snapshot plus all epoch derivations. Its B/op gate in
// scripts/bench_thresholds.txt is the alloc-counting guard that epoch
// rebuilds stay on the sparse constructors: one dense N×N fallback per
// epoch would blow through it immediately.
func BenchmarkEpochWorldMobile1k(b *testing.B) {
	top, _ := topology.CityN(1000, 3)
	cfg := network.Config{
		Positions: top.Positions,
		Radio:     topology.CityRadio(),
		Scheme:    network.Ripple,
		Flows: []network.FlowSpec{{
			ID:   1,
			Path: routing.Path{0, 5},
			Kind: network.CBRTraffic,
		}},
		Routing:  network.RoutingSpec{Kind: network.RouteETX},
		Mobility: network.MobilitySpec{Kind: network.MobilityMarkov, Stay: 0.95},
		Duration: 5 * sim.Second,
	}
	for i := 0; i < b.N; i++ {
		if _, err := network.BuildWorld(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineThroughput is a micro-benchmark of the simulation core:
// events processed per wall second for a saturated RIPPLE run.
func BenchmarkEngineThroughput(b *testing.B) {
	top, path := LineTopology(3)
	var events float64
	for i := 0; i < b.N; i++ {
		res, err := Run(Scenario{
			Topology: top,
			Scheme:   SchemeRIPPLE,
			Flows:    []Flow{{ID: 1, Path: path, Traffic: FTP{}}},
			Duration: Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events.Mean
	}
	b.ReportMetric(events/float64(b.N), "events/run")
}
