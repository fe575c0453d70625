package radio

import (
	"cmp"
	"slices"

	"ripple/internal/sim"
)

// LinkPlan is the seed-independent precomputation of a Medium: per-station
// neighbor lists with the mean RX power, distance and propagation delay of
// every kept link, all derived purely from the radio Config and the station
// positions. For a campaign cell that fans the same scenario across many
// seeds it is the dominant per-run setup cost, so NewMediumOn accepts a
// prebuilt plan and shares it by reference across runs.
//
// Storage is CSR-style sparse: one flat array per link attribute, with
// station i's links occupying slots off[i]..off[i+1]. With
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
	off     []int64
	nbrID   []int32
	nbrDBm  []float64  // mean received power before the shadowing draw
	nbrDist []float64  // Euclidean distance in metres
	nbrPD   []sim.Time // propagation delay

	// Pruned rows store a secondary per-row index for O(log k) pair
	// lookup: lookID is the row's neighbor IDs in ascending order and
	// lookSlot the row-relative slot each occupies in the power-sorted
	// primary arrays. Unpruned rows need no index — ID order makes the
	// slot directly computable.
	lookID   []int32
	lookSlot []int32

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
// given radio configuration and station positions.
func NewLinkPlan(cfg Config, positions []Pos) *LinkPlan {
	return newLinkPlan(cfg, positions, 0)
}

// newLinkPlan is NewLinkPlan with the row builder's chunk count (see
// buildRows; 0 lets the plan's size choose it).
func newLinkPlan(cfg Config, positions []Pos, chunks int) *LinkPlan {
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

// buildFull keeps every ordered pair, rows in ascending ID order. Slots
// are computable (fullSlot), so no lookup index is needed.
func (pl *LinkPlan) buildFull() {
	n := pl.n
	edges := n * (n - 1)
	pl.off = make([]int64, n+1)
	for i := 1; i <= n; i++ {
		pl.off[i] = int64(i * (n - 1))
	}
	pl.nbrID = make([]int32, edges)
	pl.nbrDBm = make([]float64, edges)
	pl.nbrDist = make([]float64, edges)
	pl.nbrPD = make([]sim.Time, edges)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := Dist(pl.positions[i], pl.positions[j])
			p := pl.cfg.MeanRxPowerDBm(d)
			pd := propDelay(d)
			si := pl.fullSlot(i, j)
			sj := pl.fullSlot(j, i)
			pl.nbrID[si], pl.nbrID[sj] = int32(j), int32(i)
			pl.nbrDBm[si], pl.nbrDBm[sj] = p, p
			pl.nbrDist[si], pl.nbrDist[sj] = d, d
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
// of allocations across all rows.
type rowScratch struct {
	ent []rowEntry
	// keys are packed (ID, row-relative slot) pairs, uint64(id)<<32 | slot:
	// sorted, they are a row's lookup index (appendRowLookup) or the dirty
	// additions' part of it (appendPatchedRow).
	keys []uint64
	// oldSlot is the epoch patch's slot remap (see appendPatchedRow): the
	// new row-relative slot of each surviving old entry.
	oldSlot []int32
}

// rowEntry is one kept link of a row under construction.
type rowEntry struct {
	dbm, dist float64
	id        int32
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

// collect resets the scratch and gathers station i's kept links from the
// grid's candidates, applying the exact power predicate.
func (s *rowScratch) collect(pl *LinkPlan, i int, grid *posGrid, rsq float64) {
	s.ent = s.ent[:0]
	grid.eachCandidate(i, pl.positions, rsq, func(j int32) {
		d := Dist(pl.positions[i], pl.positions[j])
		p := pl.cfg.MeanRxPowerDBm(d)
		if p < pl.pruneCutoff {
			return
		}
		s.ent = append(s.ent, rowEntry{dbm: p, dist: d, id: j})
	})
}

// appendScratchRow computes station i's row from scratch via the grid and
// appends it power-sorted, with its lookup index and off entry.
func (pl *LinkPlan) appendScratchRow(i int, grid *posGrid, rsq float64, s *rowScratch) {
	rowStart := len(pl.nbrID)
	s.collect(pl, i, grid, rsq)
	slices.SortFunc(s.ent, rowOrder)
	for _, e := range s.ent {
		pl.nbrID = append(pl.nbrID, e.id)
		pl.nbrDBm = append(pl.nbrDBm, e.dbm)
		pl.nbrDist = append(pl.nbrDist, e.dist)
		pl.nbrPD = append(pl.nbrPD, propDelay(e.dist))
	}
	pl.appendRowLookup(rowStart, s)
	pl.off[i+1] = int64(len(pl.nbrID))
}

// appendRowLookup builds the per-row lookup index — neighbor IDs ascending
// with their slot in the power-sorted row — for the row starting at
// rowStart, which must be the last row appended to the primary arrays.
func (pl *LinkPlan) appendRowLookup(rowStart int, s *rowScratch) {
	s.keys = s.keys[:0]
	for k, id := range pl.nbrID[rowStart:] {
		s.keys = append(s.keys, uint64(id)<<32|uint64(k))
	}
	slices.Sort(s.keys)
	for _, key := range s.keys {
		pl.lookID = append(pl.lookID, int32(key>>32))
		pl.lookSlot = append(pl.lookSlot, int32(uint32(key)))
	}
}

// row returns station i's neighbor IDs and the parallel mean-power and
// propagation-delay arrays (the Medium's transmit fast path).
func (pl *LinkPlan) row(i int) (ids []int32, dbm []float64, pd []sim.Time) {
	lo, hi := pl.off[i], pl.off[i+1]
	return pl.nbrID[lo:hi], pl.nbrDBm[lo:hi], pl.nbrPD[lo:hi]
}

// slot returns the CSR slot of the a→b link, or -1 when b is not a
// neighbor of a (pruned pair, or a == b).
func (pl *LinkPlan) slot(a, b int) int {
	if a == b {
		return -1
	}
	if !pl.pruned {
		return pl.fullSlot(a, b)
	}
	lo, hi := int(pl.off[a]), int(pl.off[a+1])
	row := pl.lookID[lo:hi]
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
		return lo + int(pl.lookSlot[lo+x])
	}
	return -1
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
// ascending ID order, with the precomputed link distance. It is the bulk
// companion of AscNeighbors for callers that need per-link attributes:
// iterating the CSR row directly avoids the per-pair slot lookup that
// Distance(a, b) pays.
func (pl *LinkPlan) EachAscNeighbor(i int, yield func(id int32, dist float64)) {
	lo, hi := pl.off[i], pl.off[i+1]
	if !pl.pruned {
		for k := lo; k < hi; k++ {
			yield(pl.nbrID[k], pl.nbrDist[k]) // rows already in ID order
		}
		return
	}
	for k := lo; k < hi; k++ {
		yield(pl.lookID[k], pl.nbrDist[lo+int64(pl.lookSlot[k])])
	}
}

// Distance returns the distance in metres between two stations. Pairs the
// plan pruned are computed on demand from the positions, so the accessor
// is exact for every pair, sparse or not.
func (pl *LinkPlan) Distance(a, b int) float64 {
	if s := pl.slot(a, b); s >= 0 {
		return pl.nbrDist[s]
	}
	if a == b {
		return 0
	}
	return Dist(pl.positions[a], pl.positions[b])
}

// MeanDBm returns the mean received power of the a→b link in dBm (0 when
// a == b, matching the dense matrix diagonal). Pruned pairs are computed
// on demand, so the accessor is exact for every pair.
func (pl *LinkPlan) MeanDBm(a, b int) float64 {
	if s := pl.slot(a, b); s >= 0 {
		return pl.nbrDBm[s]
	}
	if a == b {
		return 0
	}
	return pl.cfg.MeanRxPowerDBm(Dist(pl.positions[a], pl.positions[b]))
}
