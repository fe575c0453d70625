package routing

import (
	"math"
	"slices"

	"ripple/internal/pkt"
)

// NewSparseTableSym builds the link table over a candidate neighbor graph
// instead of probing all N² ordered pairs, for symmetric link models, where
// the forward and reverse delivery probabilities of every pair are equal
// (true of any model that is a pure function of distance, like the radio
// package's analytic shadowing model, and of that model under a symmetric
// fault mask). links must call yield for each candidate neighbor of a in
// ascending ID order with the link probability, and the candidate graph
// must be symmetric (b offered for a ⇔ a offered for b); each link
// probability is evaluated once per row end, and construction time and
// memory are O(N·k) in the average candidate degree k.
//
// A pair absent from the candidate graph is unusable (ETX +Inf), exactly as
// NewTable treats sub-minProb pairs. When the candidate graph comes from a
// pruned radio link plan this is not an approximation but an identity: a
// pruned pair's mean power is at least PruneSigma shadowing deviations below
// the carrier-sense threshold, so its delivery probability is far below any
// sensible minProb and NewTable would exclude it too. The stored values are
// NewTable's with prob(a,b) == prob(b,a): ETX(p, p) == 1/(p·p) bit for bit.
func NewSparseTableSym(n int, links func(a pkt.NodeID, yield func(b int32, p float64)), minProb float64) *Table {
	// Usable degree is typically far below candidate degree (decode range
	// vs pruning range), so rows grow by append instead of reserving the
	// full candidate count, and counting the usable ones first would pay
	// every probability twice. A station anything can be routed to has a
	// usable link, so one slot each is the floor the arrays start from.
	t := reuse(nil, n, n)
	var a int
	keep := func(b int32, p float64) {
		if int(b) == a || p < minProb {
			return
		}
		t.adjID = append(t.adjID, b)
		t.adjETX = append(t.adjETX, ETX(p, p))
	}
	for a = 0; a < n; a++ {
		links(pkt.NodeID(a), keep)
		t.off[a+1] = int64(len(t.adjID))
	}
	return t
}

// RebuildSparseTableSym derives the symmetric table of a changed world
// from its predecessor — the epoch step of a time-varying world. moved flags
// the stations whose position changed since prev was built; links must
// enumerate a moved station's candidates in the NEW graph in ascending ID
// order with the link probability, and is called for the moved stations
// only, each once.
//
// The probability of a pair depends on its two positions alone, so a pair
// with no moved end keeps its stored values — its ETX and its minProb
// verdict — and only the movers' rows are evaluated. A moved row is its
// links anew. An unmoved row is its row in prev without its moved
// neighbours, merged in ID order with the movers whose new rows hold it:
// each mover's kept entries are bucketed by the row they join, and since the
// movers are taken in ascending order every bucket ascends. The work follows
// the motion — the movers' candidates and the stored links of the rows they
// touch — not the candidate degree of every row. The result is exactly
// NewSparseTableSym over the new graph, bit for bit (the rebuild equivalence
// test and FuzzLinkTablePatch in internal/network enforce it); prev is
// read-only throughout, so runs still executing on the previous epoch are
// undisturbed.
//
// dst, when not nil, is a table nobody will read again, never prev itself:
// the result is built in it, over its arrays, and returned. nil allocates.
// sc holds the movers' rows and buckets; a caller that patches one table
// after another keeps one and hands it to every call, and the arrays of one
// patch serve the next.
func RebuildSparseTableSym(dst, prev *Table, moved []bool, links func(a pkt.NodeID, yield func(b int32, p float64)), minProb float64, sc *PatchScratch) *Table {
	n := prev.n
	// The movers, and how many stored links leave with them: each of a
	// mover's old links, and the reverse link of each unmoved neighbour.
	movers, gone, held := 0, 0, 0
	for a := range n {
		if !moved[a] {
			continue
		}
		movers++
		for _, b := range prev.adjID[prev.off[a]:prev.off[a+1]] {
			gone, held = gone+1, held+1
			if !moved[b] {
				gone++
			}
		}
	}
	// Their new rows, in ascending mover order, sized by the old ones with
	// room to grow: a mover's row holds about as many links as it did.
	sc.rowOff = append(slices.Grow(sc.rowOff[:0], movers+1), 0)
	sc.rowID = slices.Grow(sc.rowID[:0], held+held/4)
	sc.rowETX = slices.Grow(sc.rowETX[:0], held+held/4)
	var a int
	keep := func(b int32, p float64) {
		if int(b) == a || p < minProb {
			return
		}
		sc.rowID = append(sc.rowID, b)
		sc.rowETX = append(sc.rowETX, ETX(p, p))
	}
	for a = range n {
		if moved[a] {
			links(pkt.NodeID(a), keep)
			sc.rowOff = append(sc.rowOff, int32(len(sc.rowID)))
		}
	}
	// Bucket each mover's link to an unmoved station into that station's
	// row: counts in addOff[b+2], then starts in addOff[b+1] advanced as
	// the bucket fills, which leaves row b's in addOff[b]:addOff[b+1].
	sc.addOff = slices.Grow(sc.addOff[:0], n+2)[:n+2]
	clear(sc.addOff)
	for _, b := range sc.rowID {
		if !moved[b] {
			sc.addOff[b+2]++
		}
	}
	for b := 2; b < n+2; b++ {
		sc.addOff[b] += sc.addOff[b-1]
	}
	added := int(sc.addOff[n+1])
	sc.addID = slices.Grow(sc.addID[:0], added)[:added]
	sc.addETX = slices.Grow(sc.addETX[:0], added)[:added]
	for m, k := 0, 0; m < n; m++ {
		if !moved[m] {
			continue
		}
		for e := sc.rowOff[k]; e < sc.rowOff[k+1]; e++ {
			if b := sc.rowID[e]; !moved[b] {
				at := sc.addOff[b+1]
				sc.addID[at], sc.addETX[at] = int32(m), sc.rowETX[e]
				sc.addOff[b+1]++
			}
		}
		k++
	}

	t := reuse(dst, n, len(prev.adjID)-gone+len(sc.rowID)+added)
	ids, etx := t.adjID, t.adjETX
	k := 0
	for a := 0; a < n; a++ {
		if moved[a] {
			lo, hi := sc.rowOff[k], sc.rowOff[k+1]
			ids = append(ids, sc.rowID[lo:hi]...)
			etx = append(etx, sc.rowETX[lo:hi]...)
			k++
		} else {
			s, hi := prev.off[a], prev.off[a+1]
			for e := sc.addOff[a]; e < sc.addOff[a+1]; e++ {
				for m := sc.addID[e]; s < hi && prev.adjID[s] < m; s++ {
					if !moved[prev.adjID[s]] {
						ids, etx = append(ids, prev.adjID[s]), append(etx, prev.adjETX[s])
					}
				}
				ids, etx = append(ids, sc.addID[e]), append(etx, sc.addETX[e])
			}
			for ; s < hi; s++ {
				if !moved[prev.adjID[s]] {
					ids, etx = append(ids, prev.adjID[s]), append(etx, prev.adjETX[s])
				}
			}
		}
		t.off[a+1] = int64(len(ids))
	}
	t.adjID, t.adjETX = ids, etx
	return t
}

// PatchScratch is RebuildSparseTableSym's working memory: the movers' new
// rows, and those rows' links bucketed by the unmoved station each one
// joins. The zero value is ready for use.
type PatchScratch struct {
	// The k-th mover's row, in ID order, is
	// rowID/rowETX[rowOff[k]:rowOff[k+1]]; unmoved station b's bucket is
	// addID/addETX[addOff[b]:addOff[b+1]].
	rowOff, rowID []int32
	rowETX        []float64
	addOff, addID []int32
	addETX        []float64
}

// Filter returns the table of a world in which some of t's links are gone
// or worse — the fault-masked table of an epoch, from that epoch's clean
// one. mask is offered every stored link with its ETX, in row order, and
// returns the ETX to store for it or +Inf to drop it; it must be symmetric
// (mask(a, b, x) == mask(b, a, x)) and can only ever remove links, never add
// one t does not store. t is read-only throughout. dst, when not nil, is a
// table nobody will read again, never t itself: the result is built in it,
// over its arrays, and returned. nil allocates.
func (t *Table) Filter(dst *Table, mask LinkCostFunc) *Table {
	f := reuse(dst, t.n, len(t.adjID))
	for a := 0; a < t.n; a++ {
		for s := t.off[a]; s < t.off[a+1]; s++ {
			if etx := mask(pkt.NodeID(a), pkt.NodeID(t.adjID[s]), t.adjETX[s]); !math.IsInf(etx, 1) {
				f.adjID = append(f.adjID, t.adjID[s])
				f.adjETX = append(f.adjETX, etx)
			}
		}
		f.off[a+1] = int64(len(f.adjID))
	}
	return f
}

// reuse returns dst, or a new table when dst is nil, emptied for n stations
// with room for links links: its arrays are kept where they are large
// enough.
func reuse(dst *Table, n, links int) *Table {
	if dst == nil {
		dst = new(Table)
	}
	dst.n = n
	dst.off = slices.Grow(dst.off[:0], n+1)[:n+1]
	dst.off[0] = 0
	dst.adjID = room(dst.adjID, links)
	dst.adjETX = room(dst.adjETX, links)
	return dst
}

// room empties s with room for n elements, reallocating it only when it is
// too small, and then with a quarter more: an epoch lineage's tables grow as
// stations gather, and a spare sized exactly would be outgrown by the next.
func room[S ~[]E, E any](s S, n int) S {
	if cap(s) >= n {
		return s[:0]
	}
	return make(S, 0, n+n/4)
}
