package routing

import (
	"errors"
	"math"
	"testing"

	"ripple/internal/pkt"
	"ripple/internal/sim"
)

// sparseWorld builds a 500-station jittered grid plus one unreachable
// outlier, with a distance-driven link probability and a candidate
// neighbor graph of the given radius — the same shape a radio link plan
// feeds NewSparseTableSym, without importing the radio package: 230 m is a
// pruned plan, +Inf an unpruned one that offers every pair.
//
// The probability ramp hits the 0.1 minProb floor at 220 m, so the 230 m
// candidate graph strictly contains the usable link set (like geometric
// pruning, which cuts at the carrier-sense power, far below the usable-link
// threshold). Jitter stays at ±20 m so adjacent grid stations (≤194 m apart)
// always remain usable: the grid component is connected by construction.
func sparseWorld(radius float64) (n int, prob LinkProbFunc, links func(a pkt.NodeID, yield func(b int32, d float64)), outlier pkt.NodeID) {
	const rows, cols, spacing, jitter = 20, 25, 150.0, 20.0
	n = rows*cols + 1
	outlier = pkt.NodeID(n - 1)
	type xy struct{ x, y float64 }
	pos := make([]xy, 0, n)
	rng := sim.NewRNG(23, 5)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			pos = append(pos, xy{
				x: float64(c)*spacing + (rng.Float64()*2-1)*jitter,
				y: float64(r)*spacing + (rng.Float64()*2-1)*jitter,
			})
		}
	}
	pos = append(pos, xy{x: 1e6, y: 1e6}) // the outlier: no usable links
	dist := func(a, b pkt.NodeID) float64 {
		dx, dy := pos[a].x-pos[b].x, pos[a].y-pos[b].y
		return math.Sqrt(dx*dx + dy*dy)
	}
	prob = func(a, b pkt.NodeID) float64 {
		return min(max(1.2-dist(a, b)/200, 0), 1) // ≥0.1 ⇔ within 220 m
	}
	links = func(a pkt.NodeID, yield func(b int32, d float64)) {
		for b := 0; b < n; b++ {
			if d := dist(a, pkt.NodeID(b)); pkt.NodeID(b) != a && d <= radius {
				yield(int32(b), d)
			}
		}
	}
	return n, prob, links, outlier
}

// symTable is NewSparseTableSym over a candidate graph, probing each
// offered pair with prob.
func symTable(n int, prob LinkProbFunc, links func(a pkt.NodeID, yield func(b int32, d float64))) *Table {
	return NewSparseTableSym(n, func(a pkt.NodeID, yield func(b int32, p float64)) {
		links(a, func(b int32, _ float64) { yield(b, prob(a, pkt.NodeID(b))) })
	}, 0.1)
}

// symMask is a symmetric fault overlay in the shape network's epoch worlds
// apply: some stations down, some links blocked, a noise penalty scaling
// the probability by the worse endpoint.
func symMask(prob LinkProbFunc) LinkProbFunc {
	return func(a, b pkt.NodeID) float64 {
		if a%17 == 3 || b%17 == 3 || (a+b)%29 == 0 {
			return 0
		}
		if max(a, b)%11 == 5 {
			return prob(a, b) * 0.6
		}
		return prob(a, b)
	}
}

// TestSparseTableMatchesDense holds the candidate-graph builder to the
// all-pairs reference: over a pruned graph, an unpruned one and either
// under a symmetric fault mask, NewSparseTableSym stores exactly the table
// NewTable does, and LinkETX answers every pair from the link model
// directly — stored, absent and diagonal.
func TestSparseTableMatchesDense(t *testing.T) {
	for _, radius := range []float64{230, math.Inf(1)} {
		for _, masked := range []bool{false, true} {
			n, prob, links, _ := sparseWorld(radius)
			if masked {
				prob = symMask(prob)
			}
			dense := NewTable(n, prob, 0.1)
			sparse := symTable(n, prob, links)
			if sparse.Links() == 0 {
				t.Fatal("table kept no links")
			}
			tablesEqual(t, dense, sparse)
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					na, nb := pkt.NodeID(a), pkt.NodeID(b)
					want := math.Inf(1)
					if a == b {
						want = 0
					} else if p := prob(na, nb); p >= 0.1 {
						want = ETX(p, p)
					}
					if got := sparse.LinkETX(na, nb); got != want {
						t.Fatalf("radius %g masked %v: LinkETX(%d,%d) = %g, want %g", radius, masked, a, b, got, want)
					}
				}
			}
		}
	}
}

// TestSparseTableNoRoute pins the unreachable-station contract: the
// ErrNoRoute sentinel and +Inf distance for the outlier, in both
// directions, from either builder.
func TestSparseTableNoRoute(t *testing.T) {
	n, prob, links, outlier := sparseWorld(230)
	for _, tab := range []*Table{
		NewTable(n, prob, 0.1),
		symTable(n, prob, links),
	} {
		if _, err := tab.ShortestPath(0, outlier); !errors.Is(err, ErrNoRoute) {
			t.Fatalf("ShortestPath(0, outlier) err = %v, want ErrNoRoute", err)
		}
		if _, err := tab.ShortestPath(outlier, 0); !errors.Is(err, ErrNoRoute) {
			t.Fatalf("reverse err = %v, want ErrNoRoute", err)
		}
		if d := tab.Distances(0, nil); !math.IsInf(d[outlier], 1) {
			t.Fatalf("outlier distance %g, want +Inf", d[outlier])
		}
	}
}
