package network

import (
	"runtime"
	"testing"

	"ripple/internal/fault"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

// cityBenchConfig is the benchmark's city_mobile_faulty configuration: 2000
// mobile, faulty stations (200 when small), Markov stay 0.95, churn at an
// MTBF that leaves every epoch fault-masked, and flapping links.
func cityBenchConfig(small bool, dur sim.Time) Config {
	n, nFlows := 2000, 16
	if small {
		n, nFlows = 200, 4
	}
	positions, flows := cityWithFlows(n, nFlows, 20*sim.Millisecond)
	return Config{
		Positions: positions,
		Radio:     topology.CityRadio(),
		Scheme:    Ripple,
		Flows:     flows,
		Routing:   RoutingSpec{Kind: RouteETX},
		Mobility:  MobilitySpec{Kind: MobilityMarkov, Stay: 0.95, Epoch: 500 * sim.Millisecond, Seed: 5},
		Faults:    fault.Spec{Seed: 3, MTBF: 20 * sim.Second, MTTR: 2 * sim.Second, FlapLinks: 20},
		Duration:  dur,
	}
}

// BenchmarkBuildWorldCityEpochs is the pprof entry point for city set-up:
// one op is one BuildWorld of the city over five simulated seconds, a root
// world and nine epoch worlds, each patched from its predecessor and each
// fault-masked.
// The last world built stays reachable in builtWorld, so an in-use heap
// profile (-memprofile, then -sample_index=inuse_space) shows what a built
// world keeps (docs/perf.md, "City memory").
// Numbers for a performance claim come from bench/, not from here.
func BenchmarkBuildWorldCityEpochs(b *testing.B) {
	cfg := cityBenchConfig(testing.Short(), 5*sim.Second)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := BuildWorld(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if w.Epochs() < 4 {
			b.Fatalf("%d epoch worlds: the benchmark is for the epoch chain", w.Epochs())
		}
		builtWorld = w
	}
}

// builtWorld is the last world BenchmarkBuildWorldCityEpochs built.
var builtWorld *World

// TestBuildWorldAllocationBudget holds what set-up of a time-varying world
// allocates: one BuildWorld of the 200-station city over five seconds — the
// root world and nine epoch worlds, every one of them moved in and
// fault-masked. What is counted is what the worlds keep (ten link plans and
// routes: under RouteETX no world keeps a table) and what deriving them
// drops: a position grid, dirty lists and a scratch row array per plan, the
// first clean and masked tables whose arrays the lineage builds the rest
// over, and the paths of the routes. The counts repeat to within a dozen
// objects and a few kilobytes; each budget is the measured number (875
// objects, 1.41 MB) × 1.25. The bytes are the sharper of the two: with
// every world keeping its masked table, a new table per patch and filter,
// and three per-station arrays and a heap per route, the build read 3.22 MB
// (and 1,298 objects); link plans that stored an int32 ID per link, 3.84 MB
// (and 1,278 objects); storing each link's mean power and delay besides,
// and a pruned row's IDs twice, 9.60 MB (and 1,376 objects); storing its
// distance and a slot index besides, 14.98 MB (and 1,648 objects); with
// every masked epoch's table probed from nothing and the link arrays
// regrown in the row pass the same build read 24.72 MB, and a closure per
// patched table row adds some 3,000 objects.
func TestBuildWorldAllocationBudget(t *testing.T) {
	cfg := cityBenchConfig(true, 5*sim.Second)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w, err := BuildWorld(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if w.Epochs() != 9 {
		t.Fatalf("%d epoch worlds, want 9", w.Epochs())
	}
	for e, ew := range w.epochs {
		if stood := e > 0 && ew.plan == w.epochs[e-1].plan; !ew.masked || stood {
			t.Fatalf("epoch %d: masked %v, nobody moved %v: the budget is for epochs moved in and masked", e, ew.masked, stood)
		}
	}
	objects, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	const objectBudget, byteBudget = 1_094, 1_765_000
	if objects > objectBudget || bytes > byteBudget {
		t.Errorf("BuildWorld allocated %d objects (budget %d), %d bytes (budget %d)", objects, objectBudget, bytes, byteBudget)
	} else {
		t.Logf("BuildWorld: %d objects, %d bytes", objects, bytes)
	}
}

// BenchmarkCityRun is the pprof entry point for the dense fan-out: the
// benchmark's city_mobile_faulty configuration (2000 mobile, faulty
// stations, every frame sensed by ~230 of them; 200 stations under -short)
// with the world built once outside the timer, one op one simulated second.
// Numbers for a performance claim come from bench/, not from here.
func BenchmarkCityRun(b *testing.B) {
	cfg := cityBenchConfig(testing.Short(), sim.Second)
	world, err := BuildWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cfg.World = world
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}
