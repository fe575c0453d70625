package network

import (
	"testing"

	"ripple/internal/fault"
	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

// cityWithFlows is an n-station CityN layout (layout seed 11) tiled, as the
// benchmark's city is, with nFlows five-block 1000-byte CBR flows: sources
// on distinct grid rows, columns staggered, ETX routes from the endpoints.
func cityWithFlows(n, nFlows int, interval sim.Time) ([]radio.Pos, []FlowSpec) {
	top, p := topology.CityN(n, 11)
	const span = 5
	flows := make([]FlowSpec, nFlows)
	for i := range flows {
		src := pkt.NodeID((i*p.Rows)/nFlows*p.Cols + (i*3)%(p.Cols-span))
		flows[i] = FlowSpec{
			ID:             i + 1,
			Path:           routing.Path{src, src + span},
			Kind:           CBRTraffic,
			CBRInterval:    interval,
			CBRPacketBytes: 1000,
		}
	}
	return top.Positions, flows
}

// fanoutCityConfig is the benchmark's city in miniature with every fault
// process on: a pruned ~200-station CityN world under Markov mobility,
// churn, noise bursts, a partition window and enough flapping links that
// the flows' neighbourhoods contain some. Every transmission's receiver
// fan-out therefore passes through the medium's link veto, and every
// masked epoch world through LinkBlockedAt.
func fanoutCityConfig(kind SchemeKind) Config {
	positions, flows := cityWithFlows(200, 4, 10*sim.Millisecond)
	return Config{
		Positions: positions,
		Radio:     topology.CityRadio(),
		Scheme:    kind,
		Flows:     flows,
		Routing:   RoutingSpec{Kind: RouteETX},
		Mobility:  MobilitySpec{Kind: MobilityMarkov, Stay: 0.9, Epoch: 200 * sim.Millisecond, Seed: 3},
		Faults: fault.Spec{
			Seed: 7,
			MTBF: 400 * sim.Millisecond, MTTR: 200 * sim.Millisecond,
			FlapLinks: 400, FlapUp: 300 * sim.Millisecond, FlapDown: 150 * sim.Millisecond,
			NoiseBursts: 3, NoiseEvery: 400 * sim.Millisecond,
			PartitionAt: 700 * sim.Millisecond, PartitionDur: 300 * sim.Millisecond,
		},
		Duration: 1500 * sim.Millisecond,
		Seed:     9,
	}
}

// fanoutHiddenConfig is the overlap-heavy run: flow 1's three-hop line with
// six saturated hidden sources on a shadowed, bit-erroring radio, so a
// large share of receptions begin while others are in flight at the same
// receiver and the cumulative-SINR capture decision runs constantly.
func fanoutHiddenConfig() Config {
	top, main, hidden := topology.Hidden(6)
	rc := topology.HiddenRadio()
	rc.BitErrorRate = 1e-5
	flows := []FlowSpec{{ID: 1, Path: main, Kind: FTP}}
	for i, p := range hidden {
		flows = append(flows, FlowSpec{ID: i + 2, Path: p, Kind: CBRTraffic, Start: 50 * sim.Millisecond})
	}
	return Config{
		Positions: top.Positions,
		Radio:     rc,
		Scheme:    Ripple,
		Flows:     flows,
		Duration:  2 * sim.Second,
		Seed:      13,
	}
}

// TestFanoutRunsPinned holds the city runs and the hidden-terminal run to
// their pins: the medium's per-receiver loop — link veto, shadowing draw,
// addressed-receiver accounting — and its capture arithmetic are held to
// identity.
func TestFanoutRunsPinned(t *testing.T) { runPins(t, "fanout") }

func hiddenExercised(t *testing.T, _ Config, res *Result) {
	if res.Medium.FramesCollided == 0 {
		t.Fatal("no reception lost to overlap: the capture path is not exercised")
	}
}

// cityExercised checks that the run is worth pinning: churn caught stations
// holding packets, and the link veto shaped it.
func cityExercised(t *testing.T, cfg Config, res *Result) {
	crashExercised(t, cfg, res)
	vetoExercised(t, cfg, res)
}

// vetoExercised checks that the flaps and the partition shaped the run: the
// same world without them must give a different Result.
func vetoExercised(t *testing.T, cfg Config, res *Result) {
	cfg.Faults.FlapLinks, cfg.Faults.PartitionDur = 0, 0
	unblocked, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if unblocked.Medium == res.Medium {
		t.Fatal("flaps and partition left the medium counters unchanged: the link veto is not exercised")
	}
}
