package routing

import (
	"container/heap"
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"ripple/internal/pkt"
)

// refPQ and dijkstraRef are Dijkstra as it was written over container/heap,
// one boxed entry per relaxation: the reference the value-typed heap must
// agree with entry for entry.
type refPQ []*pqItem

func (q refPQ) Len() int           { return len(q) }
func (q refPQ) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q refPQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x any)        { *q = append(*q, x.(*pqItem)) }
func (q *refPQ) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

func dijkstraRef(t *Table, src pkt.NodeID, cost LinkCostFunc) ([]float64, []pkt.NodeID) {
	dist := make([]float64, t.n)
	prev := make([]pkt.NodeID, t.n)
	done := make([]bool, t.n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	q := &refPQ{{node: src, dist: 0}}
	for q.Len() > 0 {
		u := heap.Pop(q).(*pqItem).node
		if done[u] {
			continue
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
				heap.Push(q, &pqItem{node: v, dist: nd})
			}
		}
	}
	return dist, prev
}

// randomTieTable is a random symmetric graph on n stations whose link
// metrics come from a handful of values, so that many stations sit at
// exactly equal distances and which of them the heap releases first — and
// with it every predecessor — is decided by the heap's own steps.
func randomTieTable(rng *rand.Rand, n, degree, levels int) *Table {
	etx := make(map[[2]int]float64)
	for a := 0; a < n; a++ {
		for k := 0; k < degree; k++ {
			b := rng.IntN(n)
			if a == b {
				continue
			}
			lo, hi := min(a, b), max(a, b)
			etx[[2]int{lo, hi}] = float64(1 + rng.IntN(levels))
		}
	}
	t := &Table{n: n, off: make([]int64, n+1)}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if w, ok := etx[[2]int{min(a, b), max(a, b)}]; ok && a != b {
				t.adjID = append(t.adjID, int32(b))
				t.adjETX = append(t.adjETX, w)
			}
		}
		t.off[a+1] = int64(len(t.adjID))
	}
	return t
}

// pathFrom reads the src→dst path out of a finished run's predecessors, the
// way ShortestPathCost does.
func pathFrom(prev []pkt.NodeID, src, dst pkt.NodeID) Path {
	var p Path
	for at := dst; at != -1; at = prev[at] {
		p = append(p, at)
		if at == src {
			break
		}
	}
	slices.Reverse(p)
	return p
}

// TestDijkstraMatchesContainerHeap holds the value heap to the container/heap
// reference entry for entry, and the early exit to the run to completion:
// for every destination, ShortestPathCost — which stops as soon as the
// destination is settled — returns the path the full run's prev[] holds, and
// ErrNoRoute exactly where the full run's distance is +Inf.
func TestDijkstraMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	ties, unreachable := 0, 0
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.IntN(300)
		table := randomTieTable(rng, n, 1+rng.IntN(6), 1+rng.IntN(3))
		var cost LinkCostFunc
		if trial%3 == 2 {
			// A cost that removes links and adds more ties.
			cost = func(u, v pkt.NodeID, etx float64) float64 {
				if (u+v)%7 == 0 {
					return math.Inf(1)
				}
				return etx + float64((u^v)&1)
			}
		}
		for k := 0; k < 4; k++ {
			src := pkt.NodeID(rng.IntN(n))
			ws := takeWorkspace(n)
			table.dijkstra(ws, src, -1, cost)
			dist, prev := slices.Clone(ws.dist), slices.Clone(ws.prev)
			keepWorkspace(ws)
			wantDist, wantPrev := dijkstraRef(table, src, cost)
			if !slices.Equal(dist, wantDist) || !slices.Equal(prev, wantPrev) {
				t.Fatalf("trial %d (n=%d) from %d: value heap and container/heap disagree\ndist %v\nwant %v\nprev %v\nwant %v",
					trial, n, src, dist, wantDist, prev, wantPrev)
			}
			for dst := pkt.NodeID(0); int(dst) < n; dst++ {
				got, err := table.ShortestPathCost(src, dst, cost)
				if math.IsInf(wantDist[dst], 1) {
					unreachable++
					if !errors.Is(err, ErrNoRoute) {
						t.Fatalf("trial %d (n=%d) %d -> %d: unreachable, got path %v, err %v", trial, n, src, dst, got, err)
					}
					continue
				}
				if want := pathFrom(wantPrev, src, dst); err != nil || !slices.Equal(got, want) {
					t.Fatalf("trial %d (n=%d) %d -> %d: early exit routes %v (err %v), the full run %v",
						trial, n, src, dst, got, err, want)
				}
			}
			seen := map[float64]bool{}
			for _, d := range dist {
				if seen[d] && !math.IsInf(d, 1) {
					ties++
				}
				seen[d] = true
			}
		}
	}
	if ties < 10000 {
		t.Fatalf("only %d stations at a distance another shares: the tie order is not exercised", ties)
	}
	if unreachable < 100 {
		t.Fatalf("only %d unreachable destinations: ErrNoRoute under the early exit is not exercised", unreachable)
	}
}

// A call reuses an idle workspace, so what it allocates is what it returns:
// ShortestPath the path alone and Distances the distance slice alone,
// whether the table is the size of the last one searched or not.
func TestDijkstraAllocations(t *testing.T) {
	table := randomTieTable(rand.New(rand.NewPCG(3, 3)), 400, 6, 3)
	small := randomTieTable(rand.New(rand.NewPCG(4, 4)), 50, 6, 3)
	if _, err := table.ShortestPath(5, 77); err != nil {
		t.Fatal(err)
	}
	noop := func(_, _ pkt.NodeID, etx float64) float64 { return etx }
	for _, c := range []struct {
		name string
		want float64
		call func()
	}{
		{"ShortestPath", 1, func() { table.ShortestPath(5, 77) }},
		{"ShortestPathCost", 1, func() { table.ShortestPathCost(5, 77, noop) }},
		{"Distances", 1, func() { table.Distances(5, nil) }},
		{"ShortestPath on two sizes in turn", 2, func() { small.ShortestPath(1, 2); table.ShortestPath(5, 77) }},
	} {
		if a := testing.AllocsPerRun(20, c.call); a != c.want {
			t.Errorf("%s allocates %.0f objects, want %.0f: the returned values only", c.name, a, c.want)
		}
	}
}

// The early exit is what a route on a large table saves: settling a
// destination a few hops away must not settle the table.
func TestDijkstraStopsAtDestination(t *testing.T) {
	table := lineTable(500)
	relaxed := 0
	count := func(_, _ pkt.NodeID, etx float64) float64 { relaxed++; return etx }
	if _, err := table.ShortestPathCost(10, 14, count); err != nil {
		t.Fatal(err)
	}
	// Stations 6..14 at most are settled before 14 is, two links each.
	if relaxed > 20 {
		t.Fatalf("a four-hop route on a 500-station line relaxed %d links", relaxed)
	}
}
