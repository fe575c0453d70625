package ripple

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"ripple/internal/golden"
)

func TestRouteSetsExposed(t *testing.T) {
	cases := []struct {
		rs   RouteSet
		name string
	}{
		{Route0(), "ROUTE0"},
		{Route1(), "ROUTE1"},
		{Route2(), "ROUTE2"},
	}
	for _, c := range cases {
		if c.rs.Name != c.name {
			t.Errorf("route set name = %q, want %q", c.rs.Name, c.name)
		}
		for _, p := range []Path{c.rs.Flow1, c.rs.Flow2, c.rs.Flow3} {
			if len(p) < 2 {
				t.Errorf("%s has degenerate path %v", c.name, p)
			}
		}
	}
	// Table II spot checks through the public API.
	if r1 := Route1(); len(r1.Flow1) != 3 || r1.Flow1[1] != 1 {
		t.Errorf("ROUTE1 flow1 = %v, want [0 1 3]", r1.Flow1)
	}
	if r2 := Route2(); r2.Flow3[1] != 1 {
		t.Errorf("ROUTE2 flow3 = %v, want [5 1 7]", r2.Flow3)
	}
}

func TestLineWithCrossExposed(t *testing.T) {
	top, main, cross := LineWithCrossTopology(4)
	if len(main) != 5 || len(cross) != 4 {
		t.Fatalf("main %v cross %v", main, cross)
	}
	if len(top.Positions) != 8 {
		t.Fatalf("stations = %d", len(top.Positions))
	}
}

func TestScenarioMaxAggregationOverride(t *testing.T) {
	top, path := LineTopology(2)
	base := Scenario{
		Topology: top,
		Scheme:   SchemeRIPPLE,
		Flows:    []Flow{{ID: 1, Path: path, Traffic: FTP{}}},
		Duration: Second,
		Radio:    IdealRadio(),
	}
	full, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	small := base
	small.MaxAggregation = 2
	limited, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	if limited.Total.Mean >= full.Total.Mean {
		t.Fatalf("agg=2 (%.1f) should underperform agg=16 (%.1f)",
			limited.Total.Mean, full.Total.Mean)
	}
}

// TestScenarioDefaultMaxAggregationIsTheDefault: spelling out the default
// aggregation limit changes nothing, for every scheme. Setting it must not
// reset RIPPLE's other options (Rq, the relay rule) to their zero values.
func TestScenarioDefaultMaxAggregationIsTheDefault(t *testing.T) {
	top, path := LineTopology(3)
	for k := SchemeDCF; k <= SchemeRIPPLENoAgg; k++ {
		t.Run(k.String(), func(t *testing.T) {
			base := Scenario{
				Topology: top,
				Scheme:   k,
				Flows:    []Flow{{ID: 1, Path: path, Traffic: FTP{}}},
				Duration: Second,
			}
			explicit := base
			explicit.MaxAggregation = 16
			var out [2][]byte
			for i, sc := range []Scenario{base, explicit} {
				res, err := Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				out[i] = golden.Marshal(t, res)
			}
			if !bytes.Equal(out[0], out[1]) {
				t.Fatalf("MaxAggregation 16 differs from the default:\n%s", golden.Diff(out[0], out[1]))
			}
		})
	}
}

func TestScenarioMultiRateAndLowRate(t *testing.T) {
	top, path := LineTopology(2)
	base := Scenario{
		Topology: top,
		Scheme:   SchemeDCF,
		Flows:    []Flow{{ID: 1, Path: path, Traffic: FTP{}}},
		Duration: Second,
		Radio:    DefaultRadio().WithLowRatePHY(),
	}
	slow, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	fast := base
	fast.MultiRate = true
	boosted, err := Run(fast)
	if err != nil {
		t.Fatal(err)
	}
	if boosted.Total.Mean <= slow.Total.Mean {
		t.Fatalf("multi-rate %.2f should beat fixed 6 Mbps %.2f",
			boosted.Total.Mean, slow.Total.Mean)
	}
}

func TestScenarioRTSThreshold(t *testing.T) {
	top, path := LineTopology(1)
	res, err := Run(Scenario{
		Topology:     top,
		Scheme:       SchemeAFR,
		Flows:        []Flow{{ID: 1, Path: path, Traffic: FTP{}}},
		Duration:     Second,
		RTSThreshold: 1,
		Radio:        IdealRadio(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Mean <= 0 {
		t.Fatal("RTS-protected AFR delivered nothing")
	}
}

func TestRouterAPI(t *testing.T) {
	top := RoofnetTopology()
	r, err := NewRouter(top, DefaultRadio())
	if err != nil {
		t.Fatal(err)
	}
	path, err := r.Path(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) < 2 || path[0] != 0 || path[len(path)-1] != 8 {
		t.Fatalf("path = %v", path)
	}
	if etx := r.PathETX(path); etx < float64(len(path)-1) {
		t.Fatalf("PathETX = %.2f below hop count %d", etx, len(path)-1)
	}
	q := r.LinkQuality(path[0], path[1])
	if q <= 0 || q > 1 {
		t.Fatalf("LinkQuality = %v", q)
	}
	if _, err := NewRouter(top, DefaultRadio().WithBER(2)); err == nil {
		t.Fatal("invalid BER must error")
	}
	// The discovered route must actually carry traffic.
	res, err := Run(Scenario{
		Topology: top,
		Scheme:   SchemeRIPPLE,
		Flows:    []Flow{{ID: 1, Path: path, Traffic: FTP{}}},
		Duration: Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Mean <= 0 {
		t.Fatal("ETX route carried nothing")
	}
}

func TestRouterIdealProfileMatchesGeometry(t *testing.T) {
	top, _ := LineTopology(3)
	r, err := NewRouter(top, IdealRadio())
	if err != nil {
		t.Fatal(err)
	}
	// With zero shadowing, adjacent 100 m links are perfect.
	if q := r.LinkQuality(0, 1); math.Abs(q-1) > 1e-9 {
		t.Fatalf("ideal 100m link quality = %v", q)
	}
	// A 300 m link is dead but a 200 m one is perfect with zero
	// shadowing, so the minimum-ETX path takes exactly one relay.
	p, err := r.Path(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 {
		t.Fatalf("ideal-profile path = %v, want one intermediate relay", p)
	}
	if q := r.LinkQuality(p[1], p[2]); math.Abs(q-1) > 1e-9 {
		t.Fatalf("chosen hop quality = %v, want 1", q)
	}
}

func TestNetFlowTo(t *testing.T) {
	top, _ := LineTopology(3)
	net, err := NewNet(top, IdealRadio())
	if err != nil {
		t.Fatal(err)
	}
	f := net.FlowTo(0, 3, FTP{})
	if len(f.Path) < 2 || f.Path[0] != 0 || f.Path[len(f.Path)-1] != 3 {
		t.Fatalf("FlowTo path = %v", f.Path)
	}
	sc := net.Scenario(SchemeRIPPLE, f)
	if sc.Radio != net.Radio || len(sc.Topology.Positions) != 4 {
		t.Fatalf("Net.Scenario did not carry net state: %+v", sc)
	}
	sc.Duration = 500 * Millisecond
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Mean <= 0 {
		t.Fatal("endpoint-declared flow carried nothing")
	}
	if res.Flows[0].ID != 1 {
		t.Fatalf("auto-assigned flow ID = %d, want 1", res.Flows[0].ID)
	}
}

func TestNetFlowToBadEndpointsErrorAtRun(t *testing.T) {
	top, _ := LineTopology(2)
	net, err := NewNet(top, DefaultRadio())
	if err != nil {
		t.Fatal(err)
	}
	sc := net.Scenario(SchemeRIPPLE, net.FlowTo(0, 99, FTP{}))
	sc.Duration = 100 * Millisecond
	_, runErr := Run(sc)
	if runErr == nil {
		t.Fatal("unreachable destination must fail the run")
	}
	if !strings.Contains(runErr.Error(), "flow 1") || !strings.Contains(runErr.Error(), "0→99") {
		t.Fatalf("err = %v, want flow and endpoints named", runErr)
	}
}

// TestBadPositionsErrorAtRun: a station whose coordinate is NaN or
// infinite, or that puts two stations further apart than a propagation
// delay can span, fails the run with an error naming it instead of a panic
// — and Validate, NewRouter and NewNet refuse the same layout with the
// same error.
func TestBadPositionsErrorAtRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		station int
		pos     Position
	}{
		{"NaN", 1, Position{X: 100, Y: math.NaN()}},
		{"+Inf", 0, Position{X: math.Inf(1), Y: 0}},
		{"-Inf", 1, Position{X: 0, Y: math.Inf(-1)}},
		{"span", 2, Position{X: 0, Y: -7e8}},
	} {
		top, path := LineTopology(2)
		top.Positions[tc.station] = tc.pos
		sc := Scenario{
			Topology: top,
			Scheme:   SchemeRIPPLE,
			Flows:    []Flow{{Path: path, Traffic: FTP{}}},
			Duration: 100 * Millisecond,
		}
		_, runErr := Run(sc)
		_, routerErr := NewRouter(top, DefaultRadio())
		_, netErr := NewNet(top, IdealRadio())
		want := fmt.Sprintf("station %d at", tc.station)
		for _, c := range []struct {
			call string
			err  error
		}{{"Run", runErr}, {"Validate", sc.Validate()}, {"NewRouter", routerErr}, {"NewNet", netErr}} {
			if c.err == nil || !strings.Contains(c.err.Error(), want) {
				t.Errorf("%s: %s returned %v, want an error naming station %d", tc.name, c.call, c.err, tc.station)
			}
		}
		if v := sc.Validate(); v != nil && runErr != nil && v.Error() != runErr.Error() {
			t.Errorf("%s: Validate says %q, Run %q", tc.name, v, runErr)
		}
	}
}

func TestCBRIntervalThrottlesRate(t *testing.T) {
	top, path := LineTopology(1)
	base := Scenario{
		Topology: top,
		Scheme:   SchemeDCF,
		Duration: Second,
		Radio:    IdealRadio(),
	}
	saturated := base
	saturated.Flows = []Flow{{ID: 1, Path: path, Traffic: CBR{}}}
	full, err := Run(saturated)
	if err != nil {
		t.Fatal(err)
	}
	// 1000-byte packets every 10 ms = 0.8 Mbps offered load.
	paced := base
	paced.Flows = []Flow{{ID: 1, Path: path, Traffic: CBR{Interval: 10 * Millisecond}}}
	slow, err := Run(paced)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Total.Mean >= full.Total.Mean {
		t.Fatalf("paced CBR (%.2f) should be below saturation (%.2f)",
			slow.Total.Mean, full.Total.Mean)
	}
	if math.Abs(slow.Total.Mean-0.8) > 0.1 {
		t.Fatalf("paced CBR = %.3f Mbps, want ≈0.8", slow.Total.Mean)
	}
	// Halving the packet size halves the delivered rate.
	small := base
	small.Flows = []Flow{{ID: 1, Path: path, Traffic: CBR{Interval: 10 * Millisecond, PacketSize: 500}}}
	half, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(half.Total.Mean-0.4) > 0.05 {
		t.Fatalf("500-byte paced CBR = %.3f Mbps, want ≈0.4", half.Total.Mean)
	}
}

func TestVoIPBitrateParameter(t *testing.T) {
	top, path := LineTopology(1)
	run := func(spec VoIP) *Result {
		t.Helper()
		res, err := Run(Scenario{
			Topology: top,
			Scheme:   SchemeDCF,
			Radio:    IdealRadio(),
			Flows:    []Flow{{ID: 1, Path: path, Traffic: spec}},
			Duration: 4 * Second,
			Seeds:    []uint64{1, 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	std := run(VoIP{})
	fat := run(VoIP{BitrateKbps: 192})
	if fat.Total.Mean <= std.Total.Mean {
		t.Fatalf("192 kbps codec (%.3f Mbps) should outcarry 96 kbps (%.3f Mbps)",
			fat.Total.Mean, std.Total.Mean)
	}
}

func TestWebParametersChangeWorkload(t *testing.T) {
	top, path := LineTopology(1)
	run := func(spec Web) *Result {
		t.Helper()
		res, err := Run(Scenario{
			Topology: top,
			Scheme:   SchemeDCF,
			Radio:    IdealRadio(),
			Flows:    []Flow{{ID: 1, Path: path, Traffic: spec}},
			Duration: 2 * Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	std := run(Web{})
	// Tiny transfers with no think time complete far more often.
	small := run(Web{MeanTransferBytes: 2e3, MeanOffTime: Millisecond})
	if small.Flows[0].Transfers.Mean <= std.Flows[0].Transfers.Mean {
		t.Fatalf("2 KB transfers completed %.0f, default 80 KB %.0f — want more",
			small.Flows[0].Transfers.Mean, std.Flows[0].Transfers.Mean)
	}
}
