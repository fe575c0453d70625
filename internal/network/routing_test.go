package network

import (
	"testing"

	"ripple/internal/campaign/pool"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

// hotspotConfig is the congestion-diversity scenario: VoIP 0→3 whose
// minimum-ETX route transits station 1, plus a backlogged FTP transfer
// originating at station 1 — the queue the policy should route around.
func hotspotConfig(kind RoutePolicyKind, seed uint64) Config {
	top := topology.Fig1()
	rc := radio.DefaultConfig()
	rc.BitErrorRate = 1e-6
	return Config{
		Positions: top.Positions,
		Radio:     rc,
		Scheme:    Ripple,
		Routing:   RoutingSpec{Kind: kind},
		Duration:  2 * sim.Second,
		Seed:      seed,
		Flows: []FlowSpec{
			{ID: 1, Path: routing.Path{0, 1, 3}, Kind: VoIPTraffic},
			{ID: 2, Path: routing.Path{1, 7}, Kind: FTP, Start: 100 * sim.Millisecond},
		},
	}
}

// TestRoutingZeroSpecPreservesLegacyBehaviour pins the compatibility
// contract: a zero RoutingSpec must produce bit-identical results to the
// pre-policy code path (declared paths, nothing recomputed).
func TestRoutingZeroSpecPreservesLegacyBehaviour(t *testing.T) {
	legacy := smokeConfig(7)
	a, err := Run(legacy)
	if err != nil {
		t.Fatal(err)
	}
	withSpec := smokeConfig(7)
	withSpec.Routing = RoutingSpec{Kind: RouteStatic}
	b, err := Run(withSpec)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalMbps != b.TotalMbps || a.Events != b.Events {
		t.Fatalf("zero spec diverged from legacy: %.4f/%d vs %.4f/%d",
			a.TotalMbps, a.Events, b.TotalMbps, b.Events)
	}
}

// TestRouteETXRecomputesFromEndpoints: under RouteETX a deliberately bad
// declared path is replaced by the minimum-ETX route, changing the run.
func TestRouteETXRecomputesFromEndpoints(t *testing.T) {
	top := topology.Fig1()
	rc := radio.DefaultConfig()
	rc.BitErrorRate = 1e-6
	base := Config{
		Positions: top.Positions,
		Radio:     rc,
		Scheme:    DCF,
		Duration:  sim.Second,
		Seed:      1,
		// The long way round: ETX discovery finds the 2-hop route instead.
		Flows: []FlowSpec{{ID: 1, Path: routing.Path{0, 1, 2, 3}, Kind: FTP}},
	}
	declared, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	etx := base
	etx.Routing = RoutingSpec{Kind: RouteETX}
	rerouted, err := Run(etx)
	if err != nil {
		t.Fatal(err)
	}
	if declared.Events == rerouted.Events && declared.TotalMbps == rerouted.TotalMbps {
		t.Fatal("RouteETX left the declared detour in place")
	}
}

// TestCongestionEpochDeterministicAcrossPools asserts the satellite
// requirement: epoch recomputation happens inside the engine's event loop,
// so a dynamic-policy scenario folds to bit-identical numbers at any pool
// parallelism.
func TestCongestionEpochDeterministicAcrossPools(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4}
	cfg := hotspotConfig(RouteCongestion, 0)
	cfg.Routing.Epoch = 100 * sim.Millisecond
	_, serial, err := runSeedsOn(pool.New(1), cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	_, wide, err := runSeedsOn(pool.New(8), cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if serial.TotalMbps != wide.TotalMbps || serial.Events != wide.Events {
		t.Fatalf("pool size changed dynamic-routing results: %v/%d vs %v/%d",
			serial.TotalMbps, serial.Events, wide.TotalMbps, wide.Events)
	}
}

// TestCongestionDivergesFromETX asserts the dynamic policy actually changes
// the run on the hotspot scenario (if it never re-routes, it is ETX).
func TestCongestionDivergesFromETX(t *testing.T) {
	etx, err := Run(hotspotConfig(RouteETX, 1))
	if err != nil {
		t.Fatal(err)
	}
	orcd, err := Run(hotspotConfig(RouteCongestion, 1))
	if err != nil {
		t.Fatal(err)
	}
	if etx.Events == orcd.Events && etx.TotalMbps == orcd.TotalMbps {
		t.Fatal("congestion diversity never diverged from ETX on the hotspot mix")
	}
}

// TestStaticWithKSizesDeclaredPath: RouteStatic plus K must size the
// declared path in place rather than recomputing an ETX route.
func TestStaticWithKSizesDeclaredPath(t *testing.T) {
	top := topology.Fig1()
	rc := radio.DefaultConfig()
	rc.BitErrorRate = 1e-6
	base := Config{
		Positions: top.Positions,
		Radio:     rc,
		Scheme:    DCF,
		Duration:  sim.Second,
		Seed:      1,
		Flows:     []FlowSpec{{ID: 1, Path: routing.Path{0, 1, 2, 3}, Kind: FTP}},
	}
	declared, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	sized := base
	sized.Routing = RoutingSpec{Kind: RouteStatic, K: 1}
	truncated, err := Run(sized)
	if err != nil {
		t.Fatal(err)
	}
	if declared.Events == truncated.Events && declared.TotalMbps == truncated.TotalMbps {
		t.Fatal("static K-sizing left the declared 2-relay path untouched")
	}
}

func TestRoutePolicyUnreachableErrors(t *testing.T) {
	// Two stations far outside radio range: ETX discovery must fail loudly.
	cfg := Config{
		Positions: []radio.Pos{{X: 0, Y: 0}, {X: 1e6, Y: 0}},
		Scheme:    DCF,
		Duration:  sim.Second,
		Routing:   RoutingSpec{Kind: RouteETX},
		Flows:     []FlowSpec{{ID: 1, Path: routing.Path{0, 1}, Kind: FTP}},
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("unreachable destination must surface a route error")
	}
}

func TestRoutePolicyKindString(t *testing.T) {
	names := map[RoutePolicyKind]string{
		RouteStatic: "static", RouteETX: "etx", RouteCongestion: "congestion",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}
