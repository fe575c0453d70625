package routing

import (
	"math"

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
	t := &Table{n: n, off: make([]int64, n+1)}
	// Usable degree is typically far below candidate degree (decode range
	// vs pruning range), so rows grow by append instead of reserving the
	// full candidate count, and counting the usable ones first would pay
	// every probability twice. A station anything can be routed to has a
	// usable link, so one slot each is the floor the arrays start from.
	t.adjID = make([]int32, 0, n)
	t.adjETX = make([]float64, 0, n)
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
// from its predecessor — the epoch step of a time-varying world.
// moved flags the stations whose position changed since prev was built;
// links must enumerate the NEW candidate graph in ascending ID order with
// the link distance attached, and prob maps a distance to the symmetric
// delivery probability. Only the distance of a pair with a moved endpoint
// is ever read, so links may hand any other pair a placeholder instead of
// computing it.
//
// unchanged (optional, nil for none) flags stations whose candidate row —
// neighbor set and distances — is identical in the old and new graphs
// (radio.LinkPlan.RowEqual: the same neighbors, and neither the station
// nor any of them moved); their table rows are copied outright without
// enumerating the graph at all, which on a high-stay world is nearly all
// of them. Rows of the remaining unmoved stations are patched: an unmoved
// pair's distance — hence probability, ETX and minProb verdict — is
// unchanged, so its stored values are copied from prev and only pairs
// with a moved endpoint pay a probability evaluation. The result is
// exactly NewSparseTableSym over the new graph, bit for bit (the rebuild
// equivalence test enforces it); prev is read-only throughout, so runs
// still executing on the previous epoch are undisturbed.
func RebuildSparseTableSym(prev *Table, moved, unchanged []bool, links func(a pkt.NodeID, yield func(b int32, d float64)), prob func(d float64) float64, minProb float64) *Table {
	n := prev.n
	t := &Table{n: n, off: make([]int64, n+1)}
	t.adjID = make([]int32, 0, len(prev.adjID)+64)
	t.adjETX = make([]float64, 0, len(prev.adjID)+64)
	// The two row visitors are built once and read the row they serve from
	// a, k and hi: a closure handed to links escapes, and one per row would
	// be an allocation per row.
	var a, k, hi int
	fresh := func(b int32, d float64) {
		if int(b) == a {
			return
		}
		p := prob(d)
		if p < minProb {
			return
		}
		t.adjID = append(t.adjID, b)
		t.adjETX = append(t.adjETX, ETX(p, p))
	}
	// Unmoved row: lockstep walk. prev's row and the new candidate stream
	// are both ascending, and an unmoved pair offered now was offered before
	// (same geometry), so "stored in prev" already encodes the minProb
	// verdict — no probability evaluation needed.
	patched := func(b int32, d float64) {
		if moved[b] {
			fresh(b, d)
			return
		}
		for k < hi && prev.adjID[k] < b {
			k++
		}
		if k < hi && prev.adjID[k] == b {
			t.adjID = append(t.adjID, b)
			t.adjETX = append(t.adjETX, prev.adjETX[k])
			k++
		}
	}
	for a = 0; a < n; a++ {
		k, hi = int(prev.off[a]), int(prev.off[a+1])
		switch {
		case moved[a]:
			// Every pair of a moved row changed distance: full recompute.
			links(pkt.NodeID(a), fresh)
		case unchanged != nil && unchanged[a]:
			t.adjID = append(t.adjID, prev.adjID[k:hi]...)
			t.adjETX = append(t.adjETX, prev.adjETX[k:hi]...)
		default:
			links(pkt.NodeID(a), patched)
		}
		t.off[a+1] = int64(len(t.adjID))
	}
	return t
}

// Filter returns the table of a world in which some of t's links are gone
// or worse — the fault-masked table of an epoch, from that epoch's clean
// one. mask is offered every stored link with its ETX, in row order, and
// returns the ETX to store for it or +Inf to drop it; it must be symmetric
// (mask(a, b, x) == mask(b, a, x)) and can only ever remove links, never add
// one t does not store. t is read-only throughout.
func (t *Table) Filter(mask LinkCostFunc) *Table {
	f := &Table{n: t.n, off: make([]int64, t.n+1)}
	f.adjID = make([]int32, 0, len(t.adjID))
	f.adjETX = make([]float64, 0, len(t.adjID))
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
