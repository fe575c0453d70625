package radio

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// LinkPlan is the seed-independent precomputation of a Medium: per-station
// neighbor lists with the mean RX power and propagation delay of every kept
// link, all derived purely from the radio Config and the station positions.
// For a campaign cell that fans the same scenario across many seeds it is
// the dominant per-run setup cost, so NewMediumOn accepts a prebuilt plan
// and shares it by reference across runs.
//
// Storage is CSR-style sparse: one flat array per link attribute, with
// station i's links occupying slots off[i]..off[i+1]. A plan stores only
// what Medium.Transmit reads per frame — the neighbor, its mean power and
// its delay — and recomputes a link's distance from the positions when it
// is asked for one: every stored attribute was computed from exactly that
// distance, so the recomputed values are the stored ones bit for bit. With
// Config.PruneSigma == 0 every ordered pair is kept (the "dense" plan:
// O(N²) memory, neighbor lists in ID order, preserving the unpruned RNG
// stream bit for bit). With PruneSigma > 0 a uniform spatial grid (posGrid)
// enumerates only candidate pairs within the pruning radius implied by the
// cutoff, so build time and memory are O(N·k) in the average neighbor count
// k — the representation that makes 10k+-station worlds affordable — and
// each station's links are sorted by mean power (strongest first, ties by
// ID), exactly as the pruned dense build sorted them.
//
// Immutability contract: a LinkPlan is never written after NewLinkPlan
// returns. Every Medium built on it — concurrently, from any number of
// pool workers — only reads it, which is what makes sharing safe; the
// shared-world race test in internal/network hammers one plan from many
// goroutines under -race to keep it that way.
type LinkPlan struct {
	cfg       Config
	positions []Pos
	n         int

	// CSR link storage: station i's neighbors are nbrID[off[i]:off[i+1]]
	// with parallel per-link attributes. Unpruned rows are in ascending ID
	// order; pruned rows are sorted by mean power (desc, ties by ID).
	off    []int64
	nbrID  []int32
	nbrDBm []float64 // mean received power before the shadowing draw
	nbrPD  []int32   // propagation delay in nanoseconds (see CheckPositions)

	// lookID is a pruned plan's second copy of each row's neighbor IDs, in
	// ascending order: the row as AscNeighbors returns it, and the index
	// has searches. Unpruned rows are in ID order already and need none.
	lookID []int32

	// delayOrd[i], when non-nil, is row i's positions sorted by
	// (propagation delay, position): the order in which a transmission from
	// i reaches its receivers. A row already in that order has none — every
	// pruned row but the odd one whose sub-metre neighbours tie in clamped
	// power — and a plan with no such row has no slice at all.
	delayOrd [][]int32

	// pruned reports whether neighbor pruning is active; pruneCutoff is
	// the mean-power floor (dBm) below which a pair is pruned, so
	// MeanDBm(a, b) >= pruneCutoff ⇔ b ∈ neighbors(a).
	pruned      bool
	pruneCutoff float64
}

// NewLinkPlan precomputes the link attributes and neighbor lists for the
// given radio configuration and station positions. It panics on positions
// CheckPositions refuses.
func NewLinkPlan(cfg Config, positions []Pos) *LinkPlan {
	return newLinkPlan(cfg, positions, 0)
}

// newLinkPlan is NewLinkPlan with the row builder's chunk count (see
// buildRows; 0 lets the plan's size choose it).
func newLinkPlan(cfg Config, positions []Pos, chunks int) *LinkPlan {
	mustHold(positions)
	pl := &LinkPlan{
		cfg:       cfg,
		positions: append([]Pos(nil), positions...),
		n:         len(positions),
	}
	pl.pruned = cfg.PruneSigma > 0
	pl.pruneCutoff = cfg.CSThreshDBm - cfg.PruneSigma*cfg.ShadowSigmaDB
	if pl.pruned {
		pl.buildPruned(chunks)
	} else {
		pl.buildFull()
	}
	pl.indexDelayOrder()
	return pl
}

// maxDelayNS is the longest propagation delay a plan stores: its delays
// are int32 nanoseconds, which reach about 644,000 km.
const maxDelayNS = math.MaxInt32

// CheckPositions reports the first station a link plan cannot be built
// with: one with a coordinate that is NaN or infinite, or one that
// stretches the stations' bounding box so far that the propagation delay
// across its diagonal — the longest any pair of stations can have —
// overflows the plan's int32 nanoseconds.
func CheckPositions(positions []Pos) error {
	var lo, hi Pos
	for i, p := range positions {
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			return fmt.Errorf("station %d at (%v, %v): a coordinate is not finite", i, p.X, p.Y)
		}
		if i == 0 {
			lo, hi = p, p
		}
		lo = Pos{min(lo.X, p.X), min(lo.Y, p.Y)}
		hi = Pos{max(hi.X, p.X), max(hi.Y, p.Y)}
		if span := Dist(lo, hi); span/speedOfLight*1e9 >= maxDelayNS+1 {
			return fmt.Errorf("station %d at (%v, %v) spreads the stations over %.0f km, more than the %.0f km a link plan's delays can span",
				i, p.X, p.Y, span/1000, maxDelayNS/1e9*speedOfLight/1000)
		}
	}
	return nil
}

// mustHold panics on positions CheckPositions refuses: the backstop for
// callers that did not check them first.
func mustHold(positions []Pos) {
	if err := CheckPositions(positions); err != nil {
		panic("radio: link plan over bad positions: " + err.Error())
	}
}

// indexDelayOrder finishes a build: it finds the rows whose propagation
// delays do not ascend along the row and stores their delay order, in one
// backing array. Mean power falls with distance and delay rises with it,
// so a pruned row is out of order only where clamped or rounded powers
// tie; an unpruned row is in ID order and nearly always is.
func (pl *LinkPlan) indexDelayOrder() {
	total := 0
	for i := 0; i < pl.n; i++ {
		if pd := pl.nbrPD[pl.off[i]:pl.off[i+1]]; !slices.IsSorted(pd) {
			total += len(pd)
		}
	}
	if total == 0 {
		return
	}
	pl.delayOrd = make([][]int32, pl.n)
	flat := make([]int32, total)
	for i := 0; i < pl.n; i++ {
		pd := pl.nbrPD[pl.off[i]:pl.off[i+1]]
		if slices.IsSorted(pd) {
			continue
		}
		ord := flat[:len(pd):len(pd)]
		flat = flat[len(pd):]
		for k := range ord {
			ord[k] = int32(k)
		}
		slices.SortStableFunc(ord, func(a, b int32) int { return cmp.Compare(pd[a], pd[b]) })
		pl.delayOrd[i] = ord
	}
}

// delayOrder returns row i's positions in (propagation delay, position)
// order, or nil when the row is in that order as stored.
func (pl *LinkPlan) delayOrder(i int) []int32 {
	if pl.delayOrd == nil {
		return nil
	}
	return pl.delayOrd[i]
}

// buildFull keeps every ordered pair, rows in ascending ID order, so no
// lookup index is needed.
func (pl *LinkPlan) buildFull() {
	n := pl.n
	edges := n * (n - 1)
	pl.off = make([]int64, n+1)
	for i := 1; i <= n; i++ {
		pl.off[i] = int64(i * (n - 1))
	}
	pl.nbrID = make([]int32, edges)
	pl.nbrDBm = make([]float64, edges)
	pl.nbrPD = make([]int32, edges)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := Dist(pl.positions[i], pl.positions[j])
			p := pl.cfg.MeanRxPowerDBm(d)
			pd := int32(propDelay(d))
			si := pl.fullSlot(i, j)
			sj := pl.fullSlot(j, i)
			pl.nbrID[si], pl.nbrID[sj] = int32(j), int32(i)
			pl.nbrDBm[si], pl.nbrDBm[sj] = p, p
			pl.nbrPD[si], pl.nbrPD[sj] = pd, pd
		}
	}
}

// fullSlot is the CSR slot of neighbor b in row a of an unpruned plan,
// where row a is every other station in ascending ID order.
func (pl *LinkPlan) fullSlot(a, b int) int {
	if b < a {
		return a*(pl.n-1) + b
	}
	return a*(pl.n-1) + b - 1
}

// buildPruned enumerates candidate pairs through the spatial grid and keeps
// those whose mean power clears the pruning cutoff. Mean power is monotone
// non-increasing in distance, so every kept pair lies within
// rangeFor(pruneCutoff) metres; the 0.1% radius margin absorbs the
// floating-point slack of that inversion, and the exact power predicate is
// still applied per candidate — the kept set is identical to what a full
// N² sweep with the same predicate would keep.
func (pl *LinkPlan) buildPruned(chunks int) {
	n := pl.n
	pl.off = make([]int64, n+1)
	if n == 0 {
		return
	}
	radius := pl.cfg.rangeFor(pl.pruneCutoff) * 1.001
	if radius < 1 {
		// MeanRxPowerDBm clamps d < 1 to 1 m, so sub-metre pairs still
		// need a cell to meet in even when the cutoff exceeds the 1 m
		// power (in which case the predicate keeps nothing).
		radius = 1
	}
	rsq := radius * radius
	grid := newPosGrid(pl.positions, radius)

	// Pass 1: count each row's in-radius candidates — a tight upper bound on
	// its kept links (the exact predicate can only reject boundary
	// candidates), so the flat arrays are sized once, with no dense O(N²)
	// reservation.
	bound := make([]int32, n)
	for i := range bound {
		grid.eachCandidate(i, pl.positions, rsq, func(int32) { bound[i]++ })
	}

	// Pass 2: compute the exact link attributes per candidate, keep those
	// clearing the cutoff, and append each row sorted by (power desc, ID).
	pl.buildRows(bound, chunks, func(v *LinkPlan, i int, s *rowScratch) {
		v.appendScratchRow(i, grid, rsq, s)
	})
}

// rowScratch holds the per-row working slices of a pruned build, hoisted
// out of the row loops so candidate collection and sorting reuse one set
// of allocations across all rows. buildRows sizes both for the largest row
// bound of the chunk, so they never grow.
type rowScratch struct {
	ent []rowEntry
	// fresh is the IDs of a patched row's fresh entries, ascending: the
	// additions' part of its lookup index (appendPatchedRow).
	fresh []int32
}

// rowEntry is one kept link of a row under construction.
type rowEntry struct {
	dbm float64
	pd  int32
	id  int32
}

// rowOrder is the pruned row order: power descending, ties by ID
// ascending. It is strict (an ID occurs once in a row), so the instability
// of the sort never shows.
func rowOrder(a, b rowEntry) int {
	if a.dbm != b.dbm {
		if a.dbm > b.dbm {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.id, b.id)
}

// entry returns the a→b link's entry if the power predicate keeps it.
func (pl *LinkPlan) entry(a int, b int32) (rowEntry, bool) {
	d := Dist(pl.positions[a], pl.positions[b])
	p := pl.cfg.MeanRxPowerDBm(d)
	return rowEntry{dbm: p, pd: int32(propDelay(d)), id: b}, p >= pl.pruneCutoff
}

// appendScratchRow computes station i's row from scratch via the grid and
// appends it power-sorted, with its lookup index and off entry.
func (pl *LinkPlan) appendScratchRow(i int, grid *posGrid, rsq float64, s *rowScratch) {
	rowStart := len(pl.nbrID)
	s.ent = s.ent[:0]
	grid.eachCandidate(i, pl.positions, rsq, func(j int32) {
		if e, ok := pl.entry(i, j); ok {
			s.ent = append(s.ent, e)
		}
	})
	slices.SortFunc(s.ent, rowOrder)
	for _, e := range s.ent {
		pl.nbrID = append(pl.nbrID, e.id)
		pl.nbrDBm = append(pl.nbrDBm, e.dbm)
		pl.nbrPD = append(pl.nbrPD, e.pd)
	}
	pl.lookID = append(pl.lookID, pl.nbrID[rowStart:]...)
	slices.Sort(pl.lookID[rowStart:])
	pl.off[i+1] = int64(len(pl.nbrID))
}

// row returns station i's neighbor IDs and the parallel mean-power and
// propagation-delay arrays (the Medium's transmit fast path).
func (pl *LinkPlan) row(i int) (ids []int32, dbm []float64, pd []int32) {
	lo, hi := pl.off[i], pl.off[i+1]
	return pl.nbrID[lo:hi], pl.nbrDBm[lo:hi], pl.nbrPD[lo:hi]
}

// has reports whether the plan stores the a→b link: b is not a and, in a
// pruned plan, cleared the pruning cutoff.
func (pl *LinkPlan) has(a, b int) bool {
	if a == b {
		return false
	}
	if !pl.pruned {
		return true
	}
	_, ok := slices.BinarySearch(pl.lookID[pl.off[a]:pl.off[a+1]], int32(b))
	return ok
}

// Stations returns the number of stations the plan covers.
func (pl *LinkPlan) Stations() int { return pl.n }

// Pruned reports whether neighbor pruning is active (PruneSigma > 0), i.e.
// whether the plan stores only in-range links.
func (pl *LinkPlan) Pruned() bool { return pl.pruned }

// Links returns the number of directed links the plan stores — n·(n−1)
// unpruned, the in-range link count with pruning on.
func (pl *LinkPlan) Links() int { return len(pl.nbrID) }

// AscNeighbors returns station i's neighbor IDs in ascending order. The
// returned slice aliases the plan and must not be modified. The routing
// layer iterates it to build its sparse link table over exactly the pairs
// the plan kept.
func (pl *LinkPlan) AscNeighbors(i int) []int32 {
	lo, hi := pl.off[i], pl.off[i+1]
	if !pl.pruned {
		return pl.nbrID[lo:hi] // already in ID order
	}
	return pl.lookID[lo:hi]
}

// EachAscNeighbor calls yield for every stored neighbor of station i in
// ascending ID order, with the link distance: AscNeighbors for callers that
// need the distance of every link.
func (pl *LinkPlan) EachAscNeighbor(i int, yield func(id int32, dist float64)) {
	pi := pl.positions[i]
	for _, j := range pl.AscNeighbors(i) {
		yield(j, Dist(pi, pl.positions[j]))
	}
}

// Distance returns the distance in metres between two stations, stored
// link or not. It is symmetric bit for bit: Dist's differences only change
// sign when a and b swap, and math.Hypot ignores the sign.
func (pl *LinkPlan) Distance(a, b int) float64 {
	return Dist(pl.positions[a], pl.positions[b])
}

// MeanDBm returns the mean received power of the a→b link in dBm (0 when
// a == b, matching the dense matrix diagonal), stored link or not; a stored
// link's power is this value.
func (pl *LinkPlan) MeanDBm(a, b int) float64 {
	if a == b {
		return 0
	}
	return pl.cfg.MeanRxPowerDBm(pl.Distance(a, b))
}
