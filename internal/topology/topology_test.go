package topology

import (
	"testing"

	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/routing"
)

func dist(t Topology, a, b int) float64 {
	return radio.Dist(t.Positions[a], t.Positions[b])
}

// TestFig1LinkBudget checks the property §IV-A constructs: per-hop links of
// the Table II routes are good, while the direct source→destination links
// are poor — "one-hop routing is inefficient".
func TestFig1LinkBudget(t *testing.T) {
	top := Fig1()
	rc := radio.DefaultConfig()
	if len(top.Positions) != 8 {
		t.Fatalf("Fig.1 has %d stations, want 8", len(top.Positions))
	}
	// Every hop of every Table II route: loss below 35%.
	for _, rs := range routing.RouteSets() {
		for fi, p := range rs.Flows() {
			for i := 0; i+1 < len(p); i++ {
				d := dist(top, int(p[i]), int(p[i+1]))
				if loss := rc.LossProb(d); loss > 0.35 {
					t.Errorf("%s flow %d hop %d→%d: %.0fm loss %.2f too high",
						rs.Name, fi+1, p[i], p[i+1], d, loss)
				}
			}
		}
	}
	// Direct links for flows 1 and 2: loss above 50%.
	for _, pair := range [][2]int{{0, 3}, {0, 4}} {
		d := dist(top, pair[0], pair[1])
		if loss := rc.LossProb(d); loss < 0.5 {
			t.Errorf("direct %d→%d: %.0fm loss %.2f too low for the SPR motivation",
				pair[0], pair[1], d, loss)
		}
	}
}

func TestLineSpacing(t *testing.T) {
	top, path := Line(5)
	if len(top.Positions) != 6 || len(path) != 6 {
		t.Fatalf("Line(5): %d stations, path %v", len(top.Positions), path)
	}
	for i := 0; i+1 < len(path); i++ {
		if d := dist(top, i, i+1); d != Hop {
			t.Fatalf("hop %d distance = %v, want %d", i, d, Hop)
		}
	}
	if err := path.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLineWithCrossIntersects(t *testing.T) {
	top, main, cross := LineWithCross(4)
	if err := main.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := cross.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(cross)-1 != 3 {
		t.Fatalf("cross flow hops = %d, want 3", len(cross)-1)
	}
	// The cross path's second node is on the main line.
	shared := cross[1]
	if !main.Contains(shared) {
		t.Fatalf("cross path %v does not intersect main %v", cross, main)
	}
	for _, n := range cross {
		if int(n) >= len(top.Positions) {
			t.Fatalf("cross node %d outside topology", n)
		}
	}
}

func TestRegularAllWithinCarrierSense(t *testing.T) {
	top, paths := Regular(10)
	rc := radio.DefaultConfig()
	cs := rc.CSRange()
	for i := range top.Positions {
		for j := i + 1; j < len(top.Positions); j++ {
			if d := dist(top, i, j); d > cs {
				t.Fatalf("stations %d,%d at %.0fm exceed CS range %.0fm", i, j, d, cs)
			}
		}
	}
	if len(paths) != 10 {
		t.Fatalf("paths = %d", len(paths))
	}
	for _, p := range paths {
		if len(p)-1 != 3 {
			t.Fatalf("regular flow hops = %d, want 3", len(p)-1)
		}
	}
}

// TestHiddenGeometry verifies the Fig. 5(b) construction: hidden sources
// are beyond the (narrowed) carrier-sense range of flow 1's source but
// within interference range of its destination.
func TestHiddenGeometry(t *testing.T) {
	top, main, hidden := Hidden(9)
	rc := HiddenRadio()
	cs := rc.CSRange()
	src, dst := int(main.Src()), int(main.Dst())
	if len(hidden) != 9 {
		t.Fatalf("hidden flows = %d", len(hidden))
	}
	for _, h := range hidden {
		hs := int(h.Src())
		if d := dist(top, src, hs); d < cs {
			t.Errorf("hidden source %d at %.0fm inside CS range %.0fm of main source", hs, d, cs)
		}
		// Interference range: close enough to the destination that a few
		// simultaneous hidden transmitters jointly break the capture
		// margin (aggregate interference), but far enough that a single
		// one is capture-protected (≥10 dB below the 100 m signal).
		d := dist(top, dst, hs)
		if d > 3*Hop {
			t.Errorf("hidden source %d at %.0fm too far from destination to interfere", hs, d)
		}
		rc2 := radio.DefaultConfig()
		oneInterfererMargin := rc2.MeanRxPowerDBm(Hop) - rc2.MeanRxPowerDBm(d)
		if oneInterfererMargin < rc2.CaptureDB {
			t.Errorf("hidden source %d at %.0fm: single-interferer margin %.1f dB below capture %v",
				hs, d, oneInterfererMargin, rc2.CaptureDB)
		}
	}
}

func TestHiddenRadioNarrowsCS(t *testing.T) {
	def := radio.DefaultConfig()
	hid := HiddenRadio()
	if hid.CSThreshDBm <= def.CSThreshDBm {
		t.Fatal("HiddenRadio must raise the CS threshold (narrow the range)")
	}
	if hid.CSRange() >= def.CSRange() {
		t.Fatal("HiddenRadio CS range must shrink")
	}
}

func TestWigleFlows(t *testing.T) {
	top, flows, hidden := Wigle()
	if len(top.Positions) != 10 {
		t.Fatalf("wigle stations = %d, want 10 (8 APs + S,R)", len(top.Positions))
	}
	if len(flows) != 8 {
		t.Fatalf("wigle flows = %d, want 8", len(flows))
	}
	rc := HiddenRadio()
	for _, p := range flows {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(p)-1 < 1 || len(p)-1 > 3 {
			t.Errorf("wigle flow %v has %d hops, want 1-3", p, len(p)-1)
		}
		for i := 0; i+1 < len(p); i++ {
			d := dist(top, int(p[i]), int(p[i+1]))
			if loss := rc.LossProb(d); loss > 0.4 {
				t.Errorf("wigle hop %d→%d: %.0fm loss %.2f", p[i], p[i+1], d, loss)
			}
		}
	}
	if err := hidden.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := WigleFlowLabel(routing.Path{0, 3, 5, 7}); got != "1-4-6-8" {
		t.Fatalf("label = %q, want 1-4-6-8", got)
	}
}

func TestRoofnetFlowsHaveLabelledHopCounts(t *testing.T) {
	top := Roofnet()
	rc := HiddenRadio()
	tab := routing.NewTable(len(top.Positions), func(a, b pkt.NodeID) float64 {
		return 1 - rc.LossProb(dist(top, int(a), int(b)))
	}, 0.1)
	flows, err := RoofnetFlows(tab)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 6 {
		t.Fatalf("roofnet flows = %d, want 6", len(flows))
	}
	want := map[string]int{"3(1)": 3, "3(2)": 3, "4(1)": 4, "4(2)": 4, "5(1)": 5, "5(2)": 5}
	for _, f := range flows {
		if err := f.Path.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(f.Path)-1 != want[f.Label] {
			t.Errorf("flow %s has %d hops, want %d (path %v)", f.Label, len(f.Path)-1, want[f.Label], f.Path)
		}
	}
}

func TestRoofnetHiddenPairAppends(t *testing.T) {
	top := Roofnet()
	n := len(top.Positions)
	p := RoofnetHiddenPair(&top)
	if len(top.Positions) != n+2 {
		t.Fatal("hidden pair must append two stations")
	}
	if int(p.Src()) != n || int(p.Dst()) != n+1 {
		t.Fatalf("hidden path = %v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}
