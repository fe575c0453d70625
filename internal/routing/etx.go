package routing

import (
	"errors"
	"fmt"
	"math"

	"ripple/internal/pkt"
)

// ErrNoRoute is the sentinel wrapped by every path computation that fails
// because the destination is unreachable over usable links. Callers that
// must distinguish "no route exists" from configuration errors test with
// errors.Is(err, ErrNoRoute).
var ErrNoRoute = errors.New("no route")

// LinkProbFunc returns the one-way frame delivery probability of the
// directed link a→b. The radio package's analytic shadowing model provides
// this (radio.Config.LossProb over station distance).
type LinkProbFunc func(a, b pkt.NodeID) float64

// ETX computes the expected transmission count metric of a link from its
// forward and reverse delivery probabilities: 1/(df*dr) (De Couto et al.,
// MobiCom 2003). Links with either probability below minProb are unusable.
func ETX(df, dr float64) float64 {
	if df <= 0 || dr <= 0 {
		return math.Inf(1)
	}
	return 1 / (df * dr)
}

// Table holds the ETX link table for n stations as a CSR adjacency: only
// usable links are stored — both directions at or above the builder's
// minProb — and station a's occupy slots off[a]..off[a+1] in ascending
// neighbor order, so memory is O(N·k) in the usable degree k and Dijkstra
// walks adjacency rows. A pair that is not stored has ETX +Inf. Tables are
// immutable once built.
type Table struct {
	n      int
	off    []int64
	adjID  []int32
	adjETX []float64
}

// NewTable builds the link table by probing all N² ordered pairs. Links
// with delivery probability below minProb in either direction (typically
// 0.1: a ≥90%-loss link is not a link) are excluded, so Dijkstra cannot
// "use" hopeless links with astronomic ETX. It accepts any link model,
// asymmetric ones included, which makes it the reference the candidate-graph
// builders (NewSparseTableSym, RebuildSparseTableSym) are tested against.
func NewTable(n int, prob LinkProbFunc, minProb float64) *Table {
	t := &Table{n: n, off: make([]int64, n+1)}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			df := prob(pkt.NodeID(a), pkt.NodeID(b))
			dr := prob(pkt.NodeID(b), pkt.NodeID(a))
			if df < minProb || dr < minProb {
				continue
			}
			t.adjID = append(t.adjID, int32(b))
			t.adjETX = append(t.adjETX, ETX(df, dr))
		}
		t.off[a+1] = int64(len(t.adjID))
	}
	return t
}

// LinkETX returns the ETX of the a→b link: +Inf for a pair the table does
// not store, 0 on the diagonal.
func (t *Table) LinkETX(a, b pkt.NodeID) float64 {
	if a == b {
		return 0
	}
	if s := t.adjSlot(a, b); s >= 0 {
		return t.adjETX[s]
	}
	return math.Inf(1)
}

// adjSlot binary-searches row a of the adjacency for neighbor b,
// returning its slot or -1.
func (t *Table) adjSlot(a, b pkt.NodeID) int {
	lo, hi := int(t.off[a]), int(t.off[a+1])
	row := t.adjID[lo:hi]
	target := int32(b)
	x, y := 0, len(row)
	for x < y {
		mid := int(uint(x+y) >> 1)
		if row[mid] < target {
			x = mid + 1
		} else {
			y = mid
		}
	}
	if x < len(row) && row[x] == target {
		return lo + x
	}
	return -1
}

// PathETX sums the link ETX values along a path.
func (t *Table) PathETX(p Path) float64 {
	var sum float64
	for i := 0; i+1 < len(p); i++ {
		sum += t.LinkETX(p[i], p[i+1])
	}
	return sum
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node pkt.NodeID
	dist float64
}

// pq is Dijkstra's binary min-heap on dist, holding its entries by value.
// push and pop are container/heap's Push and Pop step for step — the same
// sift-up, the same swap of root and last then sift-down among the rest —
// because entries of equal dist leave the heap in an order that depends on
// exactly those steps, and the routes depend on that order.
type pq []pqItem

func (q *pq) push(it pqItem) {
	h := append(*q, it)
	*q = h
	j := len(h) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].dist < h[j].dist {
			j = r
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}

// LinkCostFunc maps a usable directed link u→v with ETX metric etx to the
// cost Dijkstra minimises. Policies use it to bend route selection around
// state the plain ETX table cannot see (queue backlog, energy, trust).
// Returning +Inf removes the link for this computation.
type LinkCostFunc func(u, v pkt.NodeID, etx float64) float64

// ShortestPath runs Dijkstra over the ETX table and returns the minimum-ETX
// path from src to dst, or an error when dst is unreachable.
func (t *Table) ShortestPath(src, dst pkt.NodeID) (Path, error) {
	return t.ShortestPathCost(src, dst, nil)
}

// ShortestPathCost runs Dijkstra with a custom link cost (nil selects the
// raw ETX metric) and returns the minimum-cost path from src to dst, or an
// error when dst is unreachable. Only links the table considers usable
// (finite ETX) are offered to the cost function.
func (t *Table) ShortestPathCost(src, dst pkt.NodeID, cost LinkCostFunc) (Path, error) {
	dist, prev := t.dijkstra(src, dst, cost)
	if math.IsInf(dist[dst], 1) {
		return nil, fmt.Errorf("routing: %w %d -> %d", ErrNoRoute, src, dst)
	}
	var rev Path
	for at := dst; at != -1; at = prev[at] {
		rev = append(rev, at)
		if at == src {
			break
		}
	}
	p := make(Path, len(rev))
	for i, id := range rev {
		p[len(rev)-1-i] = id
	}
	return p, nil
}

// Distances returns the minimum-cost distance from src to every station
// (nil cost selects raw ETX; +Inf marks unreachable stations). The ETX
// metric is symmetric (1/(df·dr) does not depend on direction), so
// Distances(dst, nil) also gives every station's distance *to* dst — the
// "ETX progress" ordering opportunistic relay selection relies on.
func (t *Table) Distances(src pkt.NodeID, cost LinkCostFunc) []float64 {
	dist, _ := t.dijkstra(src, -1, cost)
	return dist
}

// dijkstra computes single-source minimum-cost distances and predecessors
// over the stored links. A popped node's neighbors are relaxed in ascending
// ID order, which fixes the tie order among equal distances and hence the
// paths: two tables holding the same links route identically.
//
// It stops once dst is settled (-1: no station is, and every distance is
// final on return). A settled station's dist and prev never change, and every
// station on the path to a settled one was settled before it, so the path
// read back from prev is the one a run to completion leaves; the entries of
// stations not yet settled are provisional and must not be read.
func (t *Table) dijkstra(src, dst pkt.NodeID, cost LinkCostFunc) ([]float64, []pkt.NodeID) {
	dist := make([]float64, t.n)
	prev := make([]pkt.NodeID, t.n)
	done := make([]bool, t.n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	// Room for one entry per station: more are queued at once only when many
	// are reached again by a shorter way before they are settled.
	q := make(pq, 0, t.n)
	q.push(pqItem{node: src, dist: 0})
	for len(q) > 0 {
		u := q.pop().node
		if done[u] {
			continue
		}
		if u == dst {
			break
		}
		done[u] = true
		for s := int(t.off[u]); s < int(t.off[u+1]); s++ {
			v := pkt.NodeID(t.adjID[s])
			if done[v] {
				continue
			}
			w := t.adjETX[s]
			if cost != nil {
				w = cost(u, v, w)
				if math.IsInf(w, 1) {
					continue
				}
			}
			if nd := dist[u] + w; nd < dist[v] {
				dist[v] = nd
				prev[v] = u
				q.push(pqItem{node: v, dist: nd})
			}
		}
	}
	return dist, prev
}

// Stations returns the number of stations the table was built over.
func (t *Table) Stations() int { return t.n }

// Links returns the number of usable directed links the table stores.
func (t *Table) Links() int { return len(t.adjID) }

// EachNeighbor calls yield for every usable neighbor of a in ascending ID
// order with the link's ETX. Policies use it for local forwarder selection.
func (t *Table) EachNeighbor(a pkt.NodeID, yield func(b pkt.NodeID, etx float64)) {
	for s := int(t.off[a]); s < int(t.off[a+1]); s++ {
		yield(pkt.NodeID(t.adjID[s]), t.adjETX[s])
	}
}
