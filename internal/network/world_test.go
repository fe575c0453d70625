package network

import (
	"reflect"
	"testing"

	"ripple/internal/campaign/pool"
	"ripple/internal/fault"
	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

// worldTestConfig exercises both snapshot halves: the radio link plan and
// an active routing spec (ETX table + per-flow Dijkstra).
func worldTestConfig() Config {
	top, path := topology.Line(4)
	return Config{
		Positions: top.Positions,
		Scheme:    Ripple,
		Flows: []FlowSpec{
			{ID: 1, Path: endpointPath(path.Src(), path.Dst()), Kind: FTP},
		},
		Routing:  RoutingSpec{Kind: RouteETX},
		Duration: 400 * sim.Millisecond,
	}
}

// keptTable is the link table w keeps: its congestion policy's. A world
// keeps a table only under a dynamic policy, and derive builds the same
// tables whatever the kind, so a test reads them through a RouteCongestion
// world.
func keptTable(t *testing.T, w *World) *routing.Table {
	t.Helper()
	p, ok := w.policy.(*routing.CongestionPolicy)
	if !ok {
		t.Fatalf("world keeps policy %T, want a *routing.CongestionPolicy", w.policy)
	}
	return p.Table()
}

// endpointPath builds a two-endpoint path (route-policy configs declare
// endpoints; the concrete relays come from the policy).
func endpointPath(src, dst pkt.NodeID) routing.Path { return routing.Path{src, dst} }

func TestSharedWorldSeedRunsBitIdentical(t *testing.T) {
	cfg := worldTestConfig()
	seeds := []uint64{1, 2, 3, 4}

	// Per-run-built worlds, fully serial.
	perRun := make([]*Result, len(seeds))
	for i, s := range seeds {
		c := cfg
		c.Seed = s
		r, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		perRun[i] = r
	}

	// One shared world across a wide pool.
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shared := cfg
	shared.World = w
	results, _, err := runSeedsOn(pool.New(8), shared, seeds)
	if err != nil {
		t.Fatal(err)
	}

	for i := range seeds {
		if !reflect.DeepEqual(perRun[i], results[i]) {
			t.Fatalf("seed %d: shared-World result differs from per-run-built world:\n%+v\nvs\n%+v",
				seeds[i], perRun[i], results[i])
		}
	}
}

func TestRunSeedsPoolWidthInvariantWithSharedWorld(t *testing.T) {
	cfg := worldTestConfig()
	seeds := []uint64{5, 6, 7}
	narrow, _, err := runSeedsOn(pool.New(1), cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	wide, _, err := runSeedsOn(pool.New(len(seeds)), cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(narrow, wide) {
		t.Fatal("seed-run results depend on pool width")
	}
}

// TestSharedWorldRace hammers one World from many concurrent runs. Under
// -race this enforces the immutability contract: a single write to the
// shared plan, table or resolved routes from any run fails the test.
func TestSharedWorldRace(t *testing.T) {
	cfg := worldTestConfig()
	cfg.Duration = 150 * sim.Millisecond
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.World = w
	seeds := make([]uint64, 16)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	if _, _, err := runSeedsOn(pool.New(8), cfg, seeds); err != nil {
		t.Fatal(err)
	}
}

func TestWorldCheckRejectsMismatch(t *testing.T) {
	cfg := worldTestConfig()
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}

	wrongTop := cfg
	wrongTop.World = w
	top, path := topology.Line(6)
	wrongTop.Positions = top.Positions
	wrongTop.Flows = []FlowSpec{{ID: 1, Path: path, Kind: FTP}}
	if _, err := Run(wrongTop); err == nil {
		t.Fatal("Run accepted a World built for a different topology")
	}

	wrongFlows := cfg
	wrongFlows.World = w
	extra := wrongFlows.Flows[0]
	extra.ID = 2
	wrongFlows.Flows = append([]FlowSpec{wrongFlows.Flows[0]}, extra)
	if _, err := Run(wrongFlows); err == nil {
		t.Fatal("Run accepted a World built for a different flow set")
	}
}

// TestSparseWorldTableMatchesDense pins the candidate-graph equivalence at
// the world level: the table BuildWorld derives from a pruned link plan,
// and LinkTable over the same stations, must be the all-pairs reference
// built over the same radio model, link for link. Fig. 1 checks the
// small-world case (pruning active but nothing in range to prune); the
// 500-station city checks real pruning; Roofnet under the hidden-terminal
// profile at BER 1e-6 is Fig. 12's flow-selection table, and the line
// without shadowing the public IdealRadio's.
func TestSparseWorldTableMatchesDense(t *testing.T) {
	cityTop, _ := topology.CityN(500, 3)
	hidden := topology.HiddenRadio()
	hidden.BitErrorRate = 1e-6
	ideal := radio.DefaultConfig()
	ideal.ShadowSigmaDB, ideal.BitErrorRate = 0, 0
	line, _ := topology.Line(7)
	cases := []struct {
		name      string
		positions []radio.Pos
		rc        radio.Config
	}{
		{"fig1", topology.Fig1().Positions, radio.DefaultConfig()},
		{"city500", cityTop.Positions, topology.CityRadio()},
		{"roofnet", topology.Roofnet().Positions, hidden},
		{"line-ideal", line.Positions, ideal},
	}
	for _, tc := range cases {
		cfg := Config{
			Positions: tc.positions,
			Radio:     tc.rc,
			Flows:     []FlowSpec{{ID: 1, Path: endpointPath(0, 1), Kind: FTP}},
			Routing:   RoutingSpec{Kind: RouteCongestion},
		}
		w, err := derive(&cfg, new(lineage), radio.NewLinkPlan(cfg.Radio, cfg.Positions), 0)
		if err != nil {
			t.Fatal(err)
		}
		plan, sparse := w.plan, keptTable(t, w)
		if !plan.Pruned() {
			t.Fatalf("%s: plan not pruned — case set up wrong", tc.name)
		}
		prob := func(a, b pkt.NodeID) float64 {
			return 1 - tc.rc.LossProb(plan.Distance(int(a), int(b)))
		}
		dense := routing.NewTable(plan.Stations(), prob, 0.1)
		if !reflect.DeepEqual(dense, sparse) {
			t.Fatalf("%s: world table (%d links) differs from the all-pairs reference (%d links)",
				tc.name, sparse.Links(), dense.Links())
		}
		linked, err := LinkTable(tc.rc, tc.positions)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dense, linked) {
			t.Fatalf("%s: LinkTable (%d links) differs from the all-pairs reference (%d links)",
				tc.name, linked.Links(), dense.Links())
		}
	}
}

func TestBuildWorldReportsRouteErrors(t *testing.T) {
	cfg := worldTestConfig()
	// An isolated station far outside radio range makes the ETX route
	// unreachable.
	cfg.Positions = append([]radio.Pos(nil), cfg.Positions...)
	cfg.Positions[len(cfg.Positions)-1].X = 1e9
	if _, err := BuildWorld(cfg); err == nil {
		t.Fatal("BuildWorld must surface unreachable-route errors")
	}
}

// listPairs lists the plan's neighbor pairs (a < b) row by row, each row
// ascending: the enumeration planPairs indexes without listing.
func listPairs(plan *radio.LinkPlan) [][2]pkt.NodeID {
	var out [][2]pkt.NodeID
	for a := 0; a < plan.Stations(); a++ {
		plan.EachAscNeighborID(a, func(j int32) {
			if int(j) > a {
				out = append(out, [2]pkt.NodeID{pkt.NodeID(a), pkt.NodeID(j)})
			}
		})
	}
	return out
}

// Link flaps pick from the plan's pairs by index, without listing them: pair
// i of planPairs is entry i of the list, on the fan-out city, on a random
// pruned layout and on a dense one, and a fault
// schedule built over either — flaps drawn from a few pairs to more than
// there are — is the same schedule.
func TestFlapPairsMatchListedPairs(t *testing.T) {
	rng := sim.NewRNG(13, 0)
	scattered := make([]radio.Pos, 300)
	for i := range scattered {
		scattered[i] = radio.Pos{X: rng.Float64() * 6000, Y: rng.Float64() * 6000}
	}
	dense := radio.DefaultConfig()
	dense.PruneSigma = 0
	city := fanoutCityConfig(Ripple)
	for _, c := range []struct {
		name string
		plan *radio.LinkPlan
	}{
		{"fan-out city", radio.NewLinkPlan(city.Radio, city.Positions)},
		{"random layout", radio.NewLinkPlan(radio.DefaultConfig(), scattered)},
		{"dense", radio.NewLinkPlan(dense, scattered[:40])},
	} {
		listed, pairs := listPairs(c.plan), newPlanPairs(c.plan)
		if pairs.Len() != len(listed) || len(listed) < 100 {
			t.Fatalf("%s: %d pairs indexed, %d listed", c.name, pairs.Len(), len(listed))
		}
		for i, want := range listed {
			if got := pairs.Pair(i); got != want {
				t.Fatalf("%s: pair %d is %v, the list has %v", c.name, i, got, want)
			}
		}
		for _, flaps := range []int{1, 20, 400, len(listed) + 1} {
			spec := fault.Spec{Seed: uint64(flaps), FlapLinks: flaps}
			want := fault.Build(spec, 5*sim.Second, c.plan.Positions(), nil, listed)
			if got := fault.BuildOn(spec, 5*sim.Second, c.plan.Positions(), nil, pairs); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %d flaps: the schedule over the indexed pairs differs from the one over the list", c.name, flaps)
			}
		}
	}
}
