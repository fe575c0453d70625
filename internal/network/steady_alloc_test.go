package network

import (
	"runtime"
	"runtime/debug"
	"testing"

	"ripple/internal/fault"
	"ripple/internal/israce"
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
		t.Skip("seven five-second runs")
	}
	if auditEnv() {
		t.Skip("the deep audit quarantines released frames instead of reusing them")
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
		// The benchmark's ftp_chain, voip_fig1 and web_fig1 workloads.
		{"ftp_chain", chainConfig(Ripple, 5*sim.Second)},
		// The same chain under the two ExOR schedules: a decoded data frame is
		// a pooled record that is also the event of its custody decision.
		{"ftp_chain/preExOR", chainConfig(PreExOR, 5*sim.Second)},
		{"ftp_chain/MCExOR", chainConfig(MCExOR, 5*sim.Second)},
		// And under DCF with RTS/CTS: every overheard RTS or CTS extends a
		// NAV, whose expiry is an event.
		{"ftp_chain/DCF+RTS", rtsChainConfig(5 * sim.Second)},
		{"voip_fig1", voipFig1Config(5 * sim.Second)},
		// A transfer's completion re-arms the reading period: the callback is
		// bound once per flow, not made per transfer.
		{"web_fig1", webFig1Config(5 * sim.Second)},
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

// chainConfig is the benchmark's ftp_chain under scheme: one saturated TCP
// flow over a three-hop line.
func chainConfig(scheme SchemeKind, d sim.Time) Config {
	line, path := topology.Line(3)
	return Config{Positions: line.Positions, Scheme: scheme,
		Flows: []FlowSpec{{ID: 1, Path: path, Kind: FTP}}, Duration: d}
}

// rtsChainConfig is the chain under DCF with every data frame (a 1000-byte
// segment) behind an RTS/CTS handshake.
func rtsChainConfig(d sim.Time) Config {
	cfg := chainConfig(DCF, d)
	cfg.RTSThreshold = 500
	return cfg
}

// fig1Flows is the benchmark's 30-flow interactive load: ten flows of kind
// per ROUTE0 path of the Fig. 1 topology, staggered within each group.
func fig1Flows(kind TrafficKind, stagger sim.Time) []FlowSpec {
	var flows []FlowSpec
	for g, p := range routing.Route0().Flows() {
		for k := 0; k < 10; k++ {
			flows = append(flows, FlowSpec{ID: g*10 + k + 1, Path: p, Kind: kind,
				Start: sim.Time(k) * stagger})
		}
	}
	return flows
}

// voipFig1Config is the benchmark's voip_fig1: Table III's 30 calls at
// 6 Mbps.
func voipFig1Config(d sim.Time) Config {
	rc := radio.DefaultConfig()
	rc.BitErrorRate = 1e-6
	return Config{Positions: topology.Fig1().Positions, Radio: rc, Phy: phys.LowRate(),
		Scheme: Ripple, Flows: fig1Flows(VoIPTraffic, 30*sim.Millisecond), Duration: d}
}

// webFig1Config is the benchmark's web_fig1: 30 ON/OFF web sessions on
// Fig. 1.
func webFig1Config(d sim.Time) Config {
	return Config{Positions: topology.Fig1().Positions, Scheme: Ripple,
		Flows: fig1Flows(Web, 20*sim.Millisecond), Duration: d}
}

// resultObjects is what fold allocates: the Result and its Flows.
const resultObjects = 2

// multiRate is cfg with the multi-rate extension on.
func multiRate(cfg Config) Config {
	cfg.MultiRate = true
	return cfg
}

// A warm run — the same (config, seed) again on an arena that has run it
// over the same World — allocates its Result and nothing else, whatever the
// scheme and the traffic: every event it schedules is a pooled record, a
// bound timer or a series, every path the route book makes is cut from the
// arena's slab, and every buffer has the capacity the run before it grew.
// The third run is measured: the second may still size a slab to what the
// first took in all. Each case names the state it reaches that the others
// do not.
func TestWarmRerunAllocatesOnlyItsResult(t *testing.T) {
	if auditEnv() {
		t.Skip("the deep audit quarantines released frames instead of reusing them")
	}
	if israce.Enabled {
		t.Skip("the race detector allocates behind the run's back")
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		// One reversal per run, no fault, no web, no RTS.
		{"ftp_chain", chainConfig(Ripple, sim.Second)},
		{"voip_fig1", voipFig1Config(sim.Second)},
		// A completion callback per transfer.
		{"web_fig1", webFig1Config(2 * sim.Second)},
		// Fault transitions, epoch swaps, failure re-routes and the capped
		// paths of a mobile, faulty city.
		{"city200", cityBenchConfig(true, 3*sim.Second)},
		// A NAV extension per overheard RTS and CTS.
		{"ftp_chain/DCF+RTS", rtsChainConfig(sim.Second)},
		{"ftp_chain/MCExOR", chainConfig(MCExOR, sim.Second)},
		// Local packets riding on relays, and their reclaim when the bitmap
		// ACK does not come back through the relay.
		{"local aggregation", localAggConfig()},
		// A data rate picked per receiver.
		{"ftp_chain/multirate", multiRate(chainConfig(Ripple, sim.Second))},
		{"voip_fig1/multirate", multiRate(voipFig1Config(sim.Second))},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			world, err := BuildWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.World = world
			if world, err = prepare(&cfg); err != nil {
				t.Fatal(err)
			}
			arena := new(run)
			// No collection mid-run: a cycle's background work allocates
			// an object now and then, which the run did not ask for.
			runtime.GC()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var objects [3]uint64
			for i := range objects {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				arena.execute(&cfg, world)
				runtime.ReadMemStats(&after)
				objects[i] = after.Mallocs - before.Mallocs
			}
			t.Logf("objects per run: %v", objects)
			if objects[2] != resultObjects {
				t.Fatalf("the third run allocated %d objects, want the Result's %d", objects[2], resultObjects)
			}
		})
	}
}
