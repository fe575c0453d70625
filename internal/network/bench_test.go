package network

import (
	"testing"

	"ripple/internal/fault"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

// BenchmarkCityRun is the pprof entry point for the dense fan-out: the
// benchmark's city_mobile_faulty configuration (2000 mobile, faulty
// stations, every frame sensed by ~230 of them; 200 stations under -short)
// with the world built once outside the timer, one op one simulated second.
// Numbers for a performance claim come from bench/, not from here.
func BenchmarkCityRun(b *testing.B) {
	n, nFlows := 2000, 16
	if testing.Short() {
		n, nFlows = 200, 4
	}
	positions, flows := cityWithFlows(n, nFlows, 20*sim.Millisecond)
	cfg := Config{
		Positions: positions,
		Radio:     topology.CityRadio(),
		Scheme:    Ripple,
		Flows:     flows,
		Routing:   RoutingSpec{Kind: RouteETX},
		Mobility:  MobilitySpec{Kind: MobilityMarkov, Stay: 0.95, Epoch: 500 * sim.Millisecond, Seed: 5},
		Faults:    fault.Spec{Seed: 3, MTBF: 20 * sim.Second, MTTR: 2 * sim.Second, FlapLinks: 20},
		Duration:  sim.Second,
	}
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
