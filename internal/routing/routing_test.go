package routing

import (
	"math"
	"testing"
	"testing/quick"

	"ripple/internal/pkt"
)

func TestPathEndpoints(t *testing.T) {
	p := Path{0, 1, 2, 3}
	if p.Src() != 0 || p.Dst() != 3 || len(p) != 4 {
		t.Fatalf("endpoints/hops wrong: %v", p)
	}
}

func TestNextHopForward(t *testing.T) {
	p := Path{0, 1, 2, 3}
	cases := []struct {
		from, toward, want pkt.NodeID
		ok                 bool
	}{
		{0, 3, 1, true},
		{1, 3, 2, true},
		{2, 3, 3, true},
		{3, 3, 0, false}, // already there
		{3, 0, 2, true},  // reverse direction
		{1, 0, 0, true},
		{9, 3, 0, false}, // off-path
	}
	for _, c := range cases {
		got, ok := p.NextHop(c.from, c.toward)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("NextHop(%d→%d) = (%d,%v), want (%d,%v)", c.from, c.toward, got, ok, c.want, c.ok)
		}
	}
}

func TestLimitCapsForwarders(t *testing.T) {
	p := Path{0, 1, 2, 3, 4, 5, 6, 7, 8, 9} // 8 interior nodes
	lim := p.Limit(5)
	if len(lim) != 7 {
		t.Fatalf("Limit(5) kept %d nodes, want 7", len(lim))
	}
	if lim.Src() != 0 || lim.Dst() != 9 {
		t.Fatal("Limit must preserve endpoints")
	}
	if err := lim.Validate(); err != nil {
		t.Fatalf("limited path invalid: %v", err)
	}
	// Short paths are untouched.
	short := Path{0, 1, 2}
	if len(short.Limit(5)) != 3 {
		t.Fatal("Limit must not shrink short paths")
	}
}

func TestLimitDegenerateCaps(t *testing.T) {
	p := Path{0, 1, 2, 3, 4, 5}
	one := p.Limit(1)
	if len(one) != 3 || one.Src() != 0 || one.Dst() != 5 {
		t.Fatalf("Limit(1) = %v, want endpoints + middle", one)
	}
	if err := one.Validate(); err != nil {
		t.Fatal(err)
	}
	zero := p.Limit(0)
	if len(zero) != 2 || zero.Src() != 0 || zero.Dst() != 5 {
		t.Fatalf("Limit(0) = %v, want endpoints only", zero)
	}
	neg := p.Limit(-1)
	if len(neg) != 2 {
		t.Fatalf("Limit(-1) = %v", neg)
	}
}

func TestValidate(t *testing.T) {
	if err := (Path{0, 1, 2}).Validate(); err != nil {
		t.Fatalf("valid path rejected: %v", err)
	}
	if err := (Path{0}).Validate(); err == nil {
		t.Fatal("single-node path must be invalid")
	}
	if err := (Path{0, 1, 0}).Validate(); err == nil {
		t.Fatal("repeating path must be invalid")
	}
}

func TestTableIIRoutes(t *testing.T) {
	sets := RouteSets()
	if len(sets) != 3 {
		t.Fatalf("route sets = %d, want 3", len(sets))
	}
	wantEnds := []struct{ src, dst pkt.NodeID }{{0, 3}, {0, 4}, {5, 7}}
	for _, rs := range sets {
		for i, p := range rs.Flows() {
			if err := p.Validate(); err != nil {
				t.Errorf("%s flow %d: %v", rs.Name, i+1, err)
			}
			if p.Src() != wantEnds[i].src || p.Dst() != wantEnds[i].dst {
				t.Errorf("%s flow %d endpoints = %d→%d, want %d→%d",
					rs.Name, i+1, p.Src(), p.Dst(), wantEnds[i].src, wantEnds[i].dst)
			}
		}
	}
	// Spot-check the exact Table II entries.
	if r0 := Route0(); len(r0.Flow3) != 4 || r0.Flow3[1] != 6 || r0.Flow3[2] != 1 {
		t.Errorf("ROUTE0 flow 3 = %v, want [5 6 1 7]", r0.Flow3)
	}
	if r2 := Route2(); len(r2.Flow1) != 3 || r2.Flow1[1] != 2 {
		t.Errorf("ROUTE2 flow 1 = %v, want [0 2 3]", r2.Flow1)
	}
}

func TestETXFormula(t *testing.T) {
	if got := ETX(0.5, 0.5); got != 4 {
		t.Fatalf("ETX(0.5,0.5) = %v, want 4", got)
	}
	if got := ETX(1, 1); got != 1 {
		t.Fatalf("ETX(1,1) = %v, want 1", got)
	}
	if !math.IsInf(ETX(0, 1), 1) {
		t.Fatal("ETX with zero probability must be +Inf")
	}
}

// lineProb returns delivery probabilities for a 4-node line where only
// adjacent nodes have usable links.
func lineProb(a, b pkt.NodeID) float64 {
	d := int(a) - int(b)
	if d < 0 {
		d = -d
	}
	switch d {
	case 1:
		return 0.9
	case 2:
		return 0.2
	default:
		return 0.01
	}
}

func TestShortestPathOnLine(t *testing.T) {
	tab := NewTable(4, lineProb, 0.1)
	p, err := tab.ShortestPath(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// ETX per adjacent hop = 1/0.81 ≈ 1.23; 2-hop shortcut = 1/0.04 = 25.
	want := Path{0, 1, 2, 3}
	if len(p) != len(want) {
		t.Fatalf("path = %v, want %v", p, want)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path = %v, want %v", p, want)
		}
	}
}

func TestShortestPathPrefersGoodShortcut(t *testing.T) {
	// Make the 2-hop link excellent: direct 0→2 should win over 0→1→2.
	prob := func(a, b pkt.NodeID) float64 {
		if (a == 0 && b == 2) || (a == 2 && b == 0) {
			return 0.95
		}
		return lineProb(a, b)
	}
	tab := NewTable(4, prob, 0.1)
	p, err := tab.ShortestPath(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 2 {
		t.Fatalf("path = %v, want direct [0 2]", p)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	prob := func(a, b pkt.NodeID) float64 { return 0 }
	tab := NewTable(3, prob, 0.1)
	if _, err := tab.ShortestPath(0, 2); err == nil {
		t.Fatal("unreachable destination must error")
	}
}

func TestPathETXSumsLinks(t *testing.T) {
	tab := NewTable(4, lineProb, 0.1)
	got := tab.PathETX(Path{0, 1, 2})
	want := 2 * ETX(0.9, 0.9)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("PathETX = %v, want %v", got, want)
	}
}

// Property: Dijkstra's result is never worse than the straight-line path.
func TestShortestPathOptimalProperty(t *testing.T) {
	prop := func(seed uint8) bool {
		// Random symmetric link qualities over 6 nodes.
		n := 6
		probs := make([]float64, n*n)
		s := uint32(seed) + 1
		next := func() float64 {
			s = s*1664525 + 1013904223
			return float64(s%1000) / 1000
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := next()
				probs[i*n+j] = v
				probs[j*n+i] = v
			}
		}
		tab := NewTable(n, func(a, b pkt.NodeID) float64 { return probs[int(a)*n+int(b)] }, 0.1)
		p, err := tab.ShortestPath(0, pkt.NodeID(n-1))
		if err != nil {
			return true // disconnected graph is fine
		}
		straight := make(Path, n)
		for i := range straight {
			straight[i] = pkt.NodeID(i)
		}
		return tab.PathETX(p) <= tab.PathETX(straight)+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
