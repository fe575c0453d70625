package network

import (
	"runtime"
	"testing"

	"ripple/internal/fault"
	"ripple/internal/phys"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

// The steady state allocates nothing per packet, frame or timer: what a run
// allocates is set-up (stations, contenders, route book) and the warm-up of
// its pools and free lists, so over a five-second run it stays far below one
// object per fifty events. Pools and free lists belong to the run's arena and
// an arena that has served a run has them warm, so each case is measured on a
// new arena: set-up and warm-up are inside the measurement, whatever ran
// before. A per-packet allocation creeping back in costs 0.1–0.6 objects per
// event and fails here, not only in the benchmark.
func TestSteadyStateAllocatesNothingPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("five five-second runs")
	}
	if auditEnv() {
		t.Skip("the deep audit quarantines released frames instead of reusing them")
	}
	line, path := topology.Line(3)
	voipRadio := radio.DefaultConfig()
	voipRadio.BitErrorRate = 1e-6
	var calls []FlowSpec
	for g, p := range routing.Route0().Flows() {
		for k := 0; k < 10; k++ {
			calls = append(calls, FlowSpec{ID: g*10 + k + 1, Path: p, Kind: VoIPTraffic,
				Start: sim.Time(k) * 30 * sim.Millisecond})
		}
	}
	// The pinned fan-out city with the benchmark's milder faults and mobility
	// and busier flows, so that traffic, not churn or the 200 stations'
	// set-up, is what the run consists of.
	city := fanoutCityConfig(Ripple)
	city.Duration = 5 * sim.Second
	city.Mobility.Epoch, city.Mobility.Stay = 500*sim.Millisecond, 0.95
	city.Faults = fault.Spec{Seed: 7, MTBF: 20 * sim.Second, MTTR: 2 * sim.Second, FlapLinks: 20}
	for i := range city.Flows {
		city.Flows[i].CBRInterval = 2 * sim.Millisecond
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		// The benchmark's ftp_chain and voip_fig1 workloads.
		{"ftp_chain", Config{Positions: line.Positions, Scheme: Ripple,
			Flows: []FlowSpec{{ID: 1, Path: path, Kind: FTP}}, Duration: 5 * sim.Second}},
		// The same chain under the two ExOR schedules: a decoded data frame is
		// a pooled record that is also the event of its custody decision.
		{"ftp_chain/preExOR", Config{Positions: line.Positions, Scheme: PreExOR,
			Flows: []FlowSpec{{ID: 1, Path: path, Kind: FTP}}, Duration: 5 * sim.Second}},
		{"ftp_chain/MCExOR", Config{Positions: line.Positions, Scheme: MCExOR,
			Flows: []FlowSpec{{ID: 1, Path: path, Kind: FTP}}, Duration: 5 * sim.Second}},
		{"voip_fig1", Config{Positions: topology.Fig1().Positions, Radio: voipRadio, Phy: phys.LowRate(),
			Scheme: Ripple, Flows: calls, Duration: 5 * sim.Second}},
		// city_mobile_faulty in miniature: a pruned 200-station city, every
		// frame sensed by some fifty stations. A reception is a slab entry of
		// its transmission's pooled record, so the fan-out allocates nothing.
		{"city200", city},
	} {
		t.Run(c.name, func(t *testing.T) {
			world, err := BuildWorld(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.cfg.World = world
			arena := new(run)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := runOn(arena, c.cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			perEvent := float64(after.Mallocs-before.Mallocs) / float64(res.Events)
			t.Logf("%d objects over %d events: %.4f per event", after.Mallocs-before.Mallocs, res.Events, perEvent)
			if perEvent >= 0.02 {
				t.Fatalf("%.4f objects allocated per event, want < 0.02", perEvent)
			}
		})
	}
}
