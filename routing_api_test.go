package ripple

import (
	"strings"
	"testing"

	"ripple/internal/fault"
	"ripple/internal/network"
	"ripple/internal/routing"
)

func TestRoutingStrings(t *testing.T) {
	cases := map[string]Routing{
		"static":                         {},
		"etx":                            ETXRouting(),
		"congestion":                     CongestionRouting(),
		"congestion(alpha=0.5)":          CongestionRouting().WithAlpha(0.5),
		"congestion(epoch=200ms)":        CongestionRouting().WithEpoch(200 * Millisecond),
		"etx(k=3)":                       ETXRouting().WithForwarders(3),
		"etx(k=2/neardst)":               ETXRouting().WithForwarders(2).WithPriority(PriorityNearDst),
		"static(k=1/nearsrc)":            StaticRouting().WithForwarders(1).WithPriority(PriorityNearSrc),
		"congestion(alpha=0.5,epoch=1s)": CongestionRouting().WithAlpha(0.5).WithEpoch(Second),
	}
	for want, r := range cases {
		if got := r.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// TestRoutingSpecMapping holds what every constructor and With* option of
// Routing, Mobility and Faults puts into the simulator's Config: each row
// sets one builder on a valid scenario and compares the three specs
// Scenario.toConfig hands the simulator with ones written out by hand. An
// option that dropped or misplaced its value would still validate and run,
// so only a direct comparison notices it.
func TestRoutingSpecMapping(t *testing.T) {
	top, path := LineTopology(2)
	cases := []struct {
		name     string
		set      func(*Scenario)
		routing  network.RoutingSpec
		mobility network.MobilitySpec
		faults   fault.Spec
	}{
		{name: "zero", set: func(*Scenario) {}},
		{name: "StaticRouting", set: func(s *Scenario) { s.Routing = StaticRouting() }},
		{name: "ETXRouting", set: func(s *Scenario) { s.Routing = ETXRouting() },
			routing: network.RoutingSpec{Kind: network.RouteETX}},
		{name: "CongestionRouting", set: func(s *Scenario) { s.Routing = CongestionRouting() },
			routing: network.RoutingSpec{Kind: network.RouteCongestion}},
		{name: "GeoRouting", set: func(s *Scenario) { s.Routing = GeoRouting() },
			routing: network.RoutingSpec{Kind: network.RouteGeo}},
		{name: "Routing.WithAlpha", set: func(s *Scenario) { s.Routing = CongestionRouting().WithAlpha(0.4) },
			routing: network.RoutingSpec{Kind: network.RouteCongestion, Alpha: 0.4}},
		{name: "Routing.WithEpoch", set: func(s *Scenario) { s.Routing = CongestionRouting().WithEpoch(250 * Millisecond) },
			routing: network.RoutingSpec{Kind: network.RouteCongestion, Epoch: 250 * Millisecond}},
		{name: "Routing.WithForwarders", set: func(s *Scenario) { s.Routing = ETXRouting().WithForwarders(3) },
			routing: network.RoutingSpec{Kind: network.RouteETX, K: 3}},
		{name: "Routing.WithPriority neardst", set: func(s *Scenario) {
			s.Routing = CongestionRouting().WithAlpha(0.4).WithEpoch(250 * Millisecond).
				WithForwarders(2).WithPriority(PriorityNearDst)
		}, routing: network.RoutingSpec{Kind: network.RouteCongestion, Alpha: 0.4,
			Epoch: 250 * Millisecond, K: 2, Rule: routing.SizeNearDst}},
		{name: "Routing.WithPriority nearsrc", set: func(s *Scenario) {
			s.Routing = StaticRouting().WithForwarders(1).WithPriority(PriorityNearSrc)
		}, routing: network.RoutingSpec{K: 1, Rule: routing.SizeNearSrc}},
		{name: "Routing.WithPriority spaced", set: func(s *Scenario) {
			s.Routing = ETXRouting().WithForwarders(1).WithPriority(PriorityNearSrc).WithPriority(PrioritySpaced)
		}, routing: network.RoutingSpec{Kind: network.RouteETX, K: 1, Rule: routing.SizeSpaced}},
		{name: "StaticMobility", set: func(s *Scenario) { s.Mobility = StaticMobility() }},
		{name: "WaypointMobility", set: func(s *Scenario) { s.Mobility = WaypointMobility() },
			mobility: network.MobilitySpec{Kind: network.MobilityWaypoint}},
		{name: "MarkovMobility", set: func(s *Scenario) { s.Mobility = MarkovMobility() },
			mobility: network.MobilitySpec{Kind: network.MobilityMarkov}},
		{name: "Mobility.WithEpoch", set: func(s *Scenario) { s.Mobility = MarkovMobility().WithEpoch(250 * Millisecond) },
			mobility: network.MobilitySpec{Kind: network.MobilityMarkov, Epoch: 250 * Millisecond}},
		{name: "Mobility.WithSeed", set: func(s *Scenario) { s.Mobility = WaypointMobility().WithSeed(7) },
			mobility: network.MobilitySpec{Kind: network.MobilityWaypoint, Seed: 7}},
		{name: "Mobility.WithSpeed", set: func(s *Scenario) { s.Mobility = WaypointMobility().WithSpeed(1, 3) },
			mobility: network.MobilitySpec{Kind: network.MobilityWaypoint, MinSpeed: 1, MaxSpeed: 3}},
		{name: "Mobility.WithPause", set: func(s *Scenario) { s.Mobility = WaypointMobility().WithPause(2 * Second) },
			mobility: network.MobilitySpec{Kind: network.MobilityWaypoint, Pause: 2 * Second}},
		{name: "Mobility.WithPlaces", set: func(s *Scenario) { s.Mobility = MarkovMobility().WithPlaces(12) },
			mobility: network.MobilitySpec{Kind: network.MobilityMarkov, Places: 12}},
		{name: "Mobility.WithStay", set: func(s *Scenario) { s.Mobility = MarkovMobility().WithStay(0.8) },
			mobility: network.MobilitySpec{Kind: network.MobilityMarkov, Stay: 0.8}},
		{name: "NoFaults", set: func(s *Scenario) { s.Faults = NoFaults() }},
		{name: "StationChurn", set: func(s *Scenario) { s.Faults = StationChurn(4*Second, Second) },
			faults: fault.Spec{MTBF: 4 * Second, MTTR: Second}},
		{name: "LinkFlaps", set: func(s *Scenario) { s.Faults = LinkFlaps(5) },
			faults: fault.Spec{FlapLinks: 5}},
		{name: "NoiseBursts", set: func(s *Scenario) { s.Faults = NoiseBursts(2) },
			faults: fault.Spec{NoiseBursts: 2}},
		{name: "Faults.WithStationMTBF", set: func(s *Scenario) { s.Faults = LinkFlaps(1).WithStationMTBF(3*Second, 500*Millisecond) },
			faults: fault.Spec{FlapLinks: 1, MTBF: 3 * Second, MTTR: 500 * Millisecond}},
		{name: "Faults.WithLinkFlaps", set: func(s *Scenario) { s.Faults = NoiseBursts(1).WithLinkFlaps(3) },
			faults: fault.Spec{NoiseBursts: 1, FlapLinks: 3}},
		{name: "Faults.WithFlapTimes", set: func(s *Scenario) { s.Faults = LinkFlaps(1).WithFlapTimes(2*Second, 100*Millisecond) },
			faults: fault.Spec{FlapLinks: 1, FlapUp: 2 * Second, FlapDown: 100 * Millisecond}},
		{name: "Faults.WithNoiseBursts", set: func(s *Scenario) { s.Faults = LinkFlaps(1).WithNoiseBursts(4) },
			faults: fault.Spec{FlapLinks: 1, NoiseBursts: 4}},
		{name: "Faults.WithNoisePenalty", set: func(s *Scenario) { s.Faults = NoiseBursts(1).WithNoisePenalty(12, 300) },
			faults: fault.Spec{NoiseBursts: 1, NoisePenaltyDB: 12, NoiseRadius: 300}},
		{name: "Faults.WithPartition", set: func(s *Scenario) { s.Faults = LinkFlaps(1).WithPartition(2*Second, 500*Millisecond) },
			faults: fault.Spec{FlapLinks: 1, PartitionAt: 2 * Second, PartitionDur: 500 * Millisecond}},
		{name: "Faults.WithThreshold", set: func(s *Scenario) { s.Faults = LinkFlaps(1).WithThreshold(5) },
			faults: fault.Spec{FlapLinks: 1, FailureThreshold: 5}},
		{name: "Faults.WithEpoch", set: func(s *Scenario) { s.Faults = LinkFlaps(1).WithEpoch(200 * Millisecond) },
			faults: fault.Spec{FlapLinks: 1, Epoch: 200 * Millisecond}},
		{name: "Faults.WithSeed", set: func(s *Scenario) { s.Faults = LinkFlaps(1).WithSeed(7) },
			faults: fault.Spec{FlapLinks: 1, Seed: 7}},
	}
	for _, c := range cases {
		sc := Scenario{Topology: top, Scheme: SchemeRIPPLE, Flows: []Flow{{Path: path, Traffic: FTP{}}}}
		c.set(&sc)
		cfg, err := sc.toConfig()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if cfg.Routing != c.routing {
			t.Errorf("%s: Routing = %+v, want %+v", c.name, cfg.Routing, c.routing)
		}
		if cfg.Mobility != c.mobility {
			t.Errorf("%s: Mobility = %+v, want %+v", c.name, cfg.Mobility, c.mobility)
		}
		if cfg.Faults != c.faults {
			t.Errorf("%s: Faults = %+v, want %+v", c.name, cfg.Faults, c.faults)
		}
	}
}

func TestNetWithRoutingPrefillsScenario(t *testing.T) {
	top, _ := LineTopology(3)
	net, err := NewNet(top, DefaultRadio())
	if err != nil {
		t.Fatal(err)
	}
	r := CongestionRouting().WithForwarders(2)
	sc := net.WithRouting(r).Scenario(SchemeRIPPLE, net.FlowTo(0, 3, FTP{}))
	if sc.Routing != r {
		t.Fatalf("Scenario.Routing = %v, want %v", sc.Routing, r)
	}
	cfg, err := sc.toConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Routing.Kind != network.RouteCongestion || cfg.Routing.K != 2 {
		t.Fatalf("config routing = %+v", cfg.Routing)
	}
}

func TestScenarioRoutingRuns(t *testing.T) {
	top, _ := LineTopology(3)
	net, err := NewNet(top, DefaultRadio())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Routing{StaticRouting(), ETXRouting(), CongestionRouting(),
		ETXRouting().WithForwarders(1)} {
		sc := net.WithRouting(r).Scenario(SchemeRIPPLE, net.FlowTo(0, 3, CBR{}))
		sc.Duration = 200 * Millisecond
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		if res.Total.Mean <= 0 {
			t.Fatalf("%v: no throughput", r)
		}
	}
}

// TestValidateRejectsInertOptions covers every option/selection rule that
// cmd/ripplesim used to check on its own flags: an option the selected
// route policy, mobility model or fault set would silently ignore fails
// the scenario, in any chaining order, and the valid counterpart passes.
// So does every out-of-range builder value.
func TestValidateRejectsInertOptions(t *testing.T) {
	top, path := LineTopology(2)
	base := Scenario{Topology: top, Scheme: SchemeRIPPLE, Flows: []Flow{{Path: path, Traffic: FTP{}}}}
	cases := []struct {
		name    string
		set     func(*Scenario)
		errPart string // "" = valid
	}{
		{"-alpha without congestion", func(s *Scenario) { s.Routing = ETXRouting().WithAlpha(0.5) }, "WithAlpha"},
		{"-alpha on static", func(s *Scenario) { s.Routing = StaticRouting().WithAlpha(0.5) }, "WithAlpha"},
		{"-alpha with congestion", func(s *Scenario) { s.Routing = CongestionRouting().WithAlpha(0.5) }, ""},
		{"-epoch without congestion", func(s *Scenario) { s.Routing = GeoRouting().WithEpoch(Second) }, "WithEpoch"},
		{"-epoch with congestion", func(s *Scenario) { s.Routing = CongestionRouting().WithEpoch(Second) }, ""},
		{"-priority without -k", func(s *Scenario) { s.Routing = StaticRouting().WithPriority(PriorityNearDst) }, "WithPriority"},
		{"-priority before -k", func(s *Scenario) { s.Routing = ETXRouting().WithPriority(PriorityNearSrc).WithForwarders(1) }, ""},
		{"-priority spaced without -k", func(s *Scenario) { s.Routing = ETXRouting().WithPriority(PrioritySpaced) }, ""},
		{"-maxspeed without waypoint", func(s *Scenario) { s.Mobility = MarkovMobility().WithSpeed(0, 3) }, "WithSpeed"},
		{"pause without waypoint", func(s *Scenario) { s.Mobility = MarkovMobility().WithPause(Second) }, "WithPause"},
		{"-maxspeed with waypoint", func(s *Scenario) { s.Mobility = WaypointMobility().WithSpeed(0, 3).WithPause(Second) }, ""},
		{"-stay without markov", func(s *Scenario) { s.Mobility = WaypointMobility().WithStay(0.5) }, "WithStay"},
		{"places without markov", func(s *Scenario) { s.Mobility = WaypointMobility().WithPlaces(4) }, "WithPlaces"},
		{"-stay with markov", func(s *Scenario) { s.Mobility = MarkovMobility().WithStay(0.5).WithPlaces(4) }, ""},
		{"-mobepoch without a model", func(s *Scenario) { s.Mobility = StaticMobility().WithEpoch(Second) }, "need a mobility model"},
		{"-mobseed without a model", func(s *Scenario) { s.Mobility = StaticMobility().WithSeed(3) }, "need a mobility model"},
		{"-mobepoch -mobseed with a model", func(s *Scenario) { s.Mobility = MarkovMobility().WithEpoch(Second).WithSeed(3) }, ""},
		{"-mttr without -mtbf", func(s *Scenario) { s.Faults = NoFaults().WithStationMTBF(0, Second) }, "need a fault process"},
		{"-mttr without -mtbf beside flaps", func(s *Scenario) { s.Faults = LinkFlaps(1).WithStationMTBF(0, Second) }, "MTTR"},
		{"-faultseed without a process", func(s *Scenario) { s.Faults = Faults{}.WithSeed(7) }, "need a fault process"},
		{"threshold without a process", func(s *Scenario) { s.Faults = NoFaults().WithThreshold(2) }, "need a fault process"},
		{"-faultseed with a process", func(s *Scenario) { s.Faults = LinkFlaps(1).WithSeed(7).WithThreshold(2) }, ""},
		{"-mtbf -mttr", func(s *Scenario) { s.Faults = StationChurn(Second, Second) }, ""},
		{"fault epoch under mobility", func(s *Scenario) {
			s.Mobility = MarkovMobility()
			s.Faults = LinkFlaps(1).WithEpoch(Second)
		}, "Mobility.WithEpoch"},
		{"fault epoch without mobility", func(s *Scenario) { s.Faults = LinkFlaps(1).WithEpoch(Second) }, ""},
		{"faults under mobility, mobility epoch", func(s *Scenario) {
			s.Mobility = MarkovMobility().WithEpoch(Second)
			s.Faults = LinkFlaps(1)
		}, ""},
		// Out-of-range values, which the simulator would otherwise replace
		// with a default or use as they are.
		{"stay above one", func(s *Scenario) { s.Mobility = MarkovMobility().WithStay(1.5) }, "WithStay"},
		{"stay one", func(s *Scenario) { s.Mobility = MarkovMobility().WithStay(1) }, "WithStay"},
		{"negative stay", func(s *Scenario) { s.Mobility = MarkovMobility().WithStay(-0.2) }, "WithStay"},
		{"min speed above max", func(s *Scenario) { s.Mobility = WaypointMobility().WithSpeed(10, 5) }, "WithSpeed"},
		{"negative min speed", func(s *Scenario) { s.Mobility = WaypointMobility().WithSpeed(-3, 5) }, "WithSpeed"},
		{"default min speed", func(s *Scenario) { s.Mobility = WaypointMobility().WithSpeed(0, 20) }, ""},
		{"negative places", func(s *Scenario) { s.Mobility = MarkovMobility().WithPlaces(-4) }, "WithPlaces"},
		{"negative pause", func(s *Scenario) { s.Mobility = WaypointMobility().WithPause(-Second) }, "WithPause"},
		{"negative mobility epoch", func(s *Scenario) { s.Mobility = MarkovMobility().WithEpoch(-Second) }, "Mobility.WithEpoch"},
		{"negative alpha", func(s *Scenario) { s.Routing = CongestionRouting().WithAlpha(-0.5) }, "WithAlpha"},
		{"negative routing epoch", func(s *Scenario) { s.Routing = CongestionRouting().WithEpoch(-Second) }, "Routing.WithEpoch"},
		{"negative forwarders", func(s *Scenario) { s.Routing = ETXRouting().WithForwarders(-2) }, "WithForwarders"},
		{"negative noise penalty", func(s *Scenario) { s.Faults = NoiseBursts(1).WithNoisePenalty(-20, 0) }, "WithNoisePenalty penalty"},
		{"negative noise radius", func(s *Scenario) { s.Faults = NoiseBursts(1).WithNoisePenalty(0, -250) }, "WithNoisePenalty radius"},
		{"negative MTBF", func(s *Scenario) { s.Faults = LinkFlaps(1).WithStationMTBF(-Second, 0) }, "MTBF"},
		{"negative MTTR", func(s *Scenario) { s.Faults = StationChurn(Second, -Second) }, "MTTR"},
		{"negative threshold", func(s *Scenario) { s.Faults = LinkFlaps(1).WithThreshold(-1) }, "WithThreshold"},
		{"negative flap up time", func(s *Scenario) { s.Faults = LinkFlaps(1).WithFlapTimes(-Second, 0) }, "WithFlapTimes up"},
		{"negative flap down time", func(s *Scenario) { s.Faults = LinkFlaps(1).WithFlapTimes(0, -Second) }, "WithFlapTimes down"},
		{"negative partition start", func(s *Scenario) { s.Faults = LinkFlaps(1).WithPartition(-Second, Second) }, "WithPartition at"},
		{"negative partition length", func(s *Scenario) { s.Faults = LinkFlaps(1).WithPartition(Second, -Second) }, "WithPartition duration"},
		{"negative fault epoch", func(s *Scenario) { s.Faults = LinkFlaps(1).WithEpoch(-Second) }, "Faults.WithEpoch"},
	}
	for _, c := range cases {
		sc := base
		c.set(&sc)
		err := sc.Validate()
		switch {
		case c.errPart == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.errPart != "" && (err == nil || !strings.Contains(err.Error(), c.errPart)):
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.errPart)
		}
		if err != nil {
			// A run reports what Validate does, before simulating anything.
			if _, rerr := Run(sc); rerr == nil || rerr.Error() != err.Error() {
				t.Errorf("%s: Run err = %v, Validate err = %v", c.name, rerr, err)
			}
		}
	}
	// Two inert options are both reported.
	sc := base
	sc.Routing = ETXRouting().WithAlpha(1)
	sc.Faults = NoFaults().WithSeed(2)
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "WithAlpha") ||
		!strings.Contains(err.Error(), "fault process") {
		t.Errorf("two inert options: err = %v", err)
	}
}
