package routing

import (
	"errors"
	"math"
	"slices"
	"testing"

	"ripple/internal/pkt"
	"ripple/internal/radio"
)

// geoLineTable builds the table over n stations on a line with usable
// links between stations at most reach apart (prob 0.9 within reach).
func geoLineTable(n int, spacing, reach float64) (*Table, []radio.Pos) {
	pos := make([]radio.Pos, n)
	for i := range pos {
		pos[i] = radio.Pos{X: float64(i) * spacing}
	}
	t := NewTable(n, func(a, b pkt.NodeID) float64 {
		if radio.Dist(pos[a], pos[b]) <= reach {
			return 0.9
		}
		return 0
	}, 0.1)
	return t, pos
}

// TestGeoGreedyProgress: on a line where each hop reaches two stations
// ahead, greedy geographic progress takes the longest stride every time.
func TestGeoGreedyProgress(t *testing.T) {
	tab, pos := geoLineTable(7, 100, 210) // reach two neighbors ahead
	p := NewGeoPolicy(tab, pos)
	got, err := p.Route(0, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := Path{0, 2, 4, 6}
	if !slices.Equal(got, want) {
		t.Fatalf("greedy route = %v, want %v", got, want)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestGeoUnreachable: a partitioned pair errors with ErrNoRoute, exactly
// like ETX routing.
func TestGeoUnreachable(t *testing.T) {
	tab, pos := geoLineTable(6, 100, 110)
	// Break the line: push station 3 far away so 2–3 is unusable.
	pos = append([]radio.Pos(nil), pos...)
	pos[3].Y = 1e6
	tab = NewTable(len(pos), func(a, b pkt.NodeID) float64 {
		if radio.Dist(pos[a], pos[b]) <= 110 {
			return 0.9
		}
		return 0
	}, 0.1)
	p := NewGeoPolicy(tab, pos)
	if _, err := p.Route(0, 5, nil); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("expected ErrNoRoute, got %v", err)
	}
}

// TestGeoVoidRecovery builds a void: the greedy next hop toward the
// destination dead-ends, so the policy must fall back to the ETX path
// and still return a valid loop-free route.
func TestGeoVoidRecovery(t *testing.T) {
	// Geometry: src at origin; a "bait" station close to dst but with no
	// onward links; a detour chain that works. Distances are engineered so
	// greedy prefers the bait.
	pos := []radio.Pos{
		{X: 0, Y: 0},    // 0 src
		{X: 90, Y: 0},   // 1 bait: nearest to dst from src's reach, dead end
		{X: 40, Y: 60},  // 2 detour hop 1
		{X: 110, Y: 60}, // 3 detour hop 2
		{X: 170, Y: 0},  // 4 dst
	}
	// Usable links: 0–1 (bait), 0–2, 2–3, 3–4. The bait has no link
	// onward: from 1 the only neighbor is 0, which makes no progress.
	usable := map[[2]pkt.NodeID]bool{
		{0, 1}: true, {1, 0}: true,
		{0, 2}: true, {2, 0}: true,
		{2, 3}: true, {3, 2}: true,
		{3, 4}: true, {4, 3}: true,
	}
	tab := NewTable(len(pos), func(a, b pkt.NodeID) float64 {
		if usable[[2]pkt.NodeID{a, b}] {
			return 0.9
		}
		return 0
	}, 0.1)
	p := NewGeoPolicy(tab, pos)
	got, err := p.Route(0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("recovered route %v invalid: %v", got, err)
	}
	if got.Src() != 0 || got.Dst() != 4 {
		t.Fatalf("recovered route %v has wrong endpoints", got)
	}
	// The bait is a dead end, so the usable route must run the detour.
	for _, hop := range []pkt.NodeID{2, 3} {
		if !got.Contains(hop) {
			t.Fatalf("recovered route %v skips detour hop %d", got, hop)
		}
	}
}

// TestEachNeighborBuildersAgree: the all-pairs table and the
// candidate-graph table over the same usable link set enumerate identical
// (neighbor, ETX) sequences.
func TestEachNeighborBuildersAgree(t *testing.T) {
	tab, pos := geoLineTable(9, 100, 250)
	sparse := NewSparseTableSym(9, func(a pkt.NodeID, yield func(b int32, p float64)) {
		for b := 0; b < 9; b++ {
			if radio.Dist(pos[a], pos[b]) <= 250 {
				yield(int32(b), 0.9)
			}
		}
	}, 0.1)
	for a := 0; a < 9; a++ {
		type link struct {
			b   pkt.NodeID
			etx float64
		}
		var dl, sl []link
		tab.EachNeighbor(pkt.NodeID(a), func(b pkt.NodeID, e float64) { dl = append(dl, link{b, e}) })
		sparse.EachNeighbor(pkt.NodeID(a), func(b pkt.NodeID, e float64) { sl = append(sl, link{b, e}) })
		if len(dl) == 0 || !slices.Equal(dl, sl) {
			t.Fatalf("station %d: all-pairs neighbors %v != candidate-graph neighbors %v", a, dl, sl)
		}
	}
}

// TestGeoMatchesETXWhenGreedyWorks: geo routes are usable end to end —
// every consecutive pair is a usable link.
func TestGeoRouteWalkable(t *testing.T) {
	tab, pos := geoLineTable(12, 80, 170)
	p := NewGeoPolicy(tab, pos)
	got, err := p.Route(0, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(got); i++ {
		if math.IsInf(tab.LinkETX(got[i], got[i+1]), 1) {
			t.Fatalf("route %v uses unusable link %d->%d", got, got[i], got[i+1])
		}
	}
}
