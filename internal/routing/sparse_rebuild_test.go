package routing

import (
	"math"
	"slices"
	"testing"

	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/sim"
)

// probFromDist is a synthetic symmetric link model: smoothly decaying in
// distance, 0 beyond the candidate radius.
func probFromDist(d float64) float64 {
	return math.Exp(-d / 150)
}

// candGraph enumerates, for the given positions, every pair within radius
// in ascending ID order with its distance — a stand-in for the radio
// plan's EachAscNeighbor.
func candGraph(pos []radio.Pos, radius float64) func(a pkt.NodeID, yield func(b int32, d float64)) {
	return func(a pkt.NodeID, yield func(b int32, d float64)) {
		for b := range pos {
			if pkt.NodeID(b) == a {
				continue
			}
			if d := radio.Dist(pos[a], pos[b]); d <= radius {
				yield(int32(b), d)
			}
		}
	}
}

// symFromScratch is NewSparseTableSym over the candidate graph with the
// same link model: what an epoch world without a usable predecessor builds.
func symFromScratch(pos []radio.Pos, radius float64) *Table {
	cands := candGraph(pos, radius)
	return NewSparseTableSym(len(pos), func(a pkt.NodeID, yield func(b int32, p float64)) {
		cands(a, func(b int32, d float64) { yield(b, probFromDist(d)) })
	}, 0.1)
}

// allPairs is the reference: NewTable probing every pair, with pairs
// beyond the candidate radius unusable.
func allPairs(pos []radio.Pos, radius float64) *Table {
	return NewTable(len(pos), func(a, b pkt.NodeID) float64 {
		if d := radio.Dist(pos[a], pos[b]); d <= radius {
			return probFromDist(d)
		}
		return 0
	}, 0.1)
}

func tablesEqual(t *testing.T, want, got *Table) {
	t.Helper()
	if want.n != got.n {
		t.Fatalf("station counts differ")
	}
	if !slices.Equal(want.off, got.off) {
		t.Fatal("row offsets differ")
	}
	if !slices.Equal(want.adjID, got.adjID) {
		t.Fatal("adjacency IDs differ")
	}
	if !slices.Equal(want.adjETX, got.adjETX) {
		t.Fatal("adjacency ETX values differ")
	}
}

// TestRebuildSparseTableSymMatchesFromScratch is the bit-equivalence
// property of the epoch table rebuild, across several motion fractions
// and epochs of random motion, over a pruned candidate graph (400 m) and
// an unpruned one that offers every pair: each patched table equals the
// all-pairs reference, and so does a fresh NewSparseTableSym.
func TestRebuildSparseTableSymMatchesFromScratch(t *testing.T) {
	for _, radius := range []float64{400, math.Inf(1)} {
		testRebuildMatchesFromScratch(t, radius)
	}
}

func testRebuildMatchesFromScratch(t *testing.T, radius float64) {
	const (
		n    = 250
		side = 1500.0
	)
	for _, frac := range []float64{0.03, 0.3, 1.0} {
		rng := sim.NewRNG(17, uint64(frac*100))
		pos := make([]radio.Pos, n)
		for i := range pos {
			pos[i] = radio.Pos{X: rng.Float64() * side, Y: rng.Float64() * side}
		}
		prev := symFromScratch(pos, radius)
		for epoch := 0; epoch < 6; epoch++ {
			moved := make([]bool, n)
			next := append([]radio.Pos(nil), pos...)
			for i := range next {
				if rng.Float64() < frac {
					moved[i] = true
					next[i] = radio.Pos{X: rng.Float64() * side, Y: rng.Float64() * side}
				}
			}
			// unchanged mirrors radio.LinkPlan.RowEqual: an unmoved station
			// whose candidate row no mover was in (before or after) has an
			// identical row in both graphs.
			unchanged := make([]bool, n)
			for a := range unchanged {
				if moved[a] {
					continue
				}
				ok := true
				for b := 0; b < n && ok; b++ {
					if b == a || !moved[b] {
						continue
					}
					if radio.Dist(pos[a], pos[b]) <= radius || radio.Dist(next[a], next[b]) <= radius {
						ok = false
					}
				}
				unchanged[a] = ok
			}
			got := RebuildSparseTableSym(prev, moved, unchanged, candGraph(next, radius), probFromDist, 0.1)
			want := allPairs(next, radius)
			tablesEqual(t, want, got)
			tablesEqual(t, want, symFromScratch(next, radius))
			// And the patched table must route identically, not just store
			// identical links.
			for _, dst := range []pkt.NodeID{pkt.NodeID(n - 1), pkt.NodeID(n / 2)} {
				pw, errW := want.ShortestPath(0, dst)
				pg, errG := got.ShortestPath(0, dst)
				if (errW == nil) != (errG == nil) || !slices.Equal(pw, pg) {
					t.Fatalf("radius %g frac %g epoch %d: routes diverge: %v/%v vs %v/%v", radius, frac, epoch, pw, errW, pg, errG)
				}
			}
			prev, pos = got, next
		}
	}
}

// TestRebuildSparseTableKeepsPrevIntact guards immutability of the
// predecessor epoch's table while its successor is derived.
func TestRebuildSparseTableKeepsPrevIntact(t *testing.T) {
	const n = 80
	rng := sim.NewRNG(3, 3)
	pos := make([]radio.Pos, n)
	for i := range pos {
		pos[i] = radio.Pos{X: rng.Float64() * 800, Y: rng.Float64() * 800}
	}
	prev := symFromScratch(pos, 300)
	snapshot := symFromScratch(pos, 300)
	moved := make([]bool, n)
	next := append([]radio.Pos(nil), pos...)
	for i := 0; i < n; i += 3 {
		moved[i] = true
		next[i] = radio.Pos{X: rng.Float64() * 800, Y: rng.Float64() * 800}
	}
	RebuildSparseTableSym(prev, moved, nil, candGraph(next, 300), probFromDist, 0.1)
	tablesEqual(t, snapshot, prev)
}
