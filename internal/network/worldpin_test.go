package network

import (
	"testing"

	"ripple/internal/fault"
	"ripple/internal/pkt"
	"ripple/internal/routing"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

// worldPinConfig is one cell of the world-derivation matrix: a jittered
// 4×12 lattice at a 200 m pitch (2.2 km long, so a one-sigma pruning cutoff
// keeps 956 of the 2256 ordered pairs and the unpruned twin stores them
// all), three paced CBR flows with declared five-hop paths along their
// rows, mobility short-epoched enough that a 1.5 s run crosses seven
// boundaries, and every fault process on: churn, flapping links, noise
// bursts and a partition window that opens and closes mid-run. The waypoint
// cells carry the heavy fault profile (every epoch's table is masked); the
// Markov cells the light one, whose epochs read clean, masked, clean, masked,
// masked, clean, clean — so a clean table is patched from the root's, from a
// clean epoch's and from the clean table carried through a masked epoch, and
// a masked one filtered after each — and whose hops disconnect flow endpoints
// in clean epochs (stale routes) as well as masked ones (unreachable).
// Between them the cells reach every provenance of a link table
// (pruned/unpruned × clean/masked × after clean/after masked), both route
// resolutions (root world, epoch world) for a sized static path and for each
// built-in policy, and the epoch swap's stale/unreachable bookkeeping.
func worldPinConfig(pruned bool, mob MobilityKind, route RoutingSpec) Config {
	const rows, cols = 4, 12
	top := topology.City(topology.CityParams{Rows: rows, Cols: cols, Spacing: 200, Jitter: 20, Seed: 5})
	rc := topology.CityRadio()
	rc.PruneSigma = 0
	if pruned {
		rc.PruneSigma = 1
	}
	flows := make([]FlowSpec, 3)
	for i := range flows {
		src := pkt.NodeID(i*cols + i)
		flows[i] = FlowSpec{
			ID:             i + 1,
			Path:           routing.Path{src, src + 1, src + 2, src + 3, src + 4, src + 5},
			Kind:           CBRTraffic,
			CBRInterval:    3 * sim.Millisecond,
			CBRPacketBytes: 1000,
			Start:          sim.Time(i) * 10 * sim.Millisecond,
		}
	}
	scheme := Ripple
	faults := fault.Spec{
		Seed: 6,
		MTBF: 500 * sim.Millisecond, MTTR: 250 * sim.Millisecond,
		FlapLinks: 60, FlapUp: 300 * sim.Millisecond, FlapDown: 200 * sim.Millisecond,
		NoiseBursts: 2, NoiseEvery: 400 * sim.Millisecond,
		PartitionAt: 500 * sim.Millisecond, PartitionDur: 450 * sim.Millisecond,
	}
	if mob == MobilityMarkov {
		scheme = MCExOR
		faults = fault.Spec{
			Seed: 2,
			MTBF: 12 * sim.Second, MTTR: 100 * sim.Millisecond,
			FlapLinks: 4, FlapUp: 500 * sim.Millisecond, FlapDown: 100 * sim.Millisecond,
			NoiseBursts: 1, NoiseEvery: 600 * sim.Millisecond,
			PartitionAt: 700 * sim.Millisecond, PartitionDur: 250 * sim.Millisecond,
		}
	}
	return Config{
		Positions: top.Positions,
		Radio:     rc,
		Scheme:    scheme,
		Flows:     flows,
		Routing:   route,
		Mobility:  MobilitySpec{Kind: mob, Epoch: 200 * sim.Millisecond, Seed: 4, MaxSpeed: 40, Stay: 0.7},
		Faults:    faults,
		Duration:  1500 * sim.Millisecond,
		Seed:      21,
	}
}

// worldPinRoutes are the four route resolutions of the matrix.
var worldPinRoutes = []struct {
	name string
	spec RoutingSpec
}{
	{"staticK3", RoutingSpec{K: 3}},
	{"etx", RoutingSpec{Kind: RouteETX}},
	{"congestion", RoutingSpec{Kind: RouteCongestion, Epoch: 150 * sim.Millisecond, K: 2, Rule: routing.SizeNearDst}},
	{"geo", RoutingSpec{Kind: RouteGeo}},
}

// TestWorldDerivationRunsPinned holds each cell to its pin: the Result and
// the summary of the run's JSONL trace (every medium event plus the
// station-down, station-up, route-stale and unreachable events Run
// fabricates frames for).
func TestWorldDerivationRunsPinned(t *testing.T) {
	var stale, unreach uint64
	crashes := 0
	for _, pin := range runPins(t, "world") {
		res := pin.Result.(*Result)
		stale += res.RouteStale
		unreach += res.Unreachable
		crashes += pin.Trace.Events["station-down"]
	}
	if stale == 0 || unreach == 0 || crashes == 0 {
		t.Fatalf("matrix too quiet to pin: %d stale-route epochs, %d unreachable drops, %d station crashes",
			stale, unreach, crashes)
	}
}
