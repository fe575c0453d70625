package radio

import (
	"bytes"
	"math"
)

// Rebuild returns the LinkPlan for the same radio Config over new station
// positions, reusing this plan's rows wherever it can. It is the epoch
// step of a time-varying world: mobility models leave most stations with
// bit-identical coordinates each epoch, so an unmoved station's row is
// patched from its old one and only moved stations' rows are computed
// from scratch.
//
// The result is exactly NewLinkPlan(cfg, positions) — same kept pairs, same
// rows, bit for bit (the rebuild equivalence test diffs every array, and
// every transmit row derived from them, to keep it that way). The receiving
// plan is not modified; when no station moved at all it is returned as-is
// (both plans are immutable, so sharing is safe).
//
// A row is a membership list, so patching one is a single merge: an unmoved
// station's old row minus its moved neighbours, interleaved in ID order
// with the moved stations now in range. Moved stations' own rows rebuild
// from scratch through the spatial grid. When more than a quarter of the
// population moved the patch has no advantage and Rebuild falls back to a
// full build, as it does for unpruned plans (dense worlds are small enough
// that a full O(N²) build is cheap).
func (pl *LinkPlan) Rebuild(positions []Pos) *LinkPlan {
	if len(positions) != pl.n {
		panic("radio: Rebuild with a different station count")
	}
	mustHold(positions)
	moved := make([]bool, pl.n)
	movedIdx := make([]int32, 0, 64)
	for i := range positions {
		if positions[i] != pl.positions[i] {
			moved[i] = true
			movedIdx = append(movedIdx, int32(i))
		}
	}
	if len(movedIdx) == 0 {
		return pl
	}
	if !pl.pruned || len(movedIdx)*4 > pl.n {
		return NewLinkPlan(pl.cfg, positions)
	}

	np := &LinkPlan{
		cfg:         pl.cfg,
		positions:   append([]Pos(nil), positions...),
		n:           pl.n,
		serial:      serials.Add(1),
		pruned:      true,
		pruneCutoff: pl.pruneCutoff,
	}
	radius := np.pruneRadius()
	rsq := radius * radius
	grid := newPosGrid(np.positions, radius)

	// Dirty pass: for every moved station j, every station within the
	// candidate radius of j's NEW position may now need j in its row.
	// (j's old neighbourhood needs no lookup: the merge below drops every
	// moved neighbour and re-adds only those the predicate still keeps.)
	// Candidates are symmetric-by-distance, so querying around j finds
	// exactly the rows whose candidate set gained j. Stored as a CSR over
	// rows; each row's dirty list is in ascending moved-station order
	// because movedIdx is ascending. The same pass counts each mover's
	// candidates: the bound on its own row.
	bound := make([]int32, pl.n)
	dirtyOff := make([]int32, pl.n+1)
	for _, j := range movedIdx {
		grid.eachCandidate(int(j), np.positions, rsq, func(c int32) {
			bound[j]++
			if !moved[c] {
				dirtyOff[c+1]++
			}
		})
	}
	for i := 0; i < pl.n; i++ {
		dirtyOff[i+1] += dirtyOff[i]
	}
	dirtyJ := make([]int32, dirtyOff[pl.n])
	cursor := append([]int32(nil), dirtyOff[:pl.n]...)
	for _, j := range movedIdx {
		grid.eachCandidate(int(j), np.positions, rsq, func(c int32) {
			if !moved[c] {
				dirtyJ[cursor[c]] = j
				cursor[c]++
			}
		})
	}

	// movedNbrs[i] is how many of unmoved row i's old neighbours moved, the
	// entries the merge drops; the rest survive as they are. An unmoved row
	// holds at most its survivors plus its dirty candidates — the exact
	// predicate can only reject boundary candidates, as in buildPruned — so
	// however far a step densifies the graph, no row outgrows its bound and
	// the row pass never reallocates.
	movedNbrs := make([]int32, pl.n)
	for i := 0; i < pl.n; i++ {
		if moved[i] {
			continue
		}
		links, row := int32(0), pl.row(i)
		for k, j := 0, int32(0); k < len(row); links++ {
			if k, j = nextID(row, k, j); moved[j] {
				movedNbrs[i]++
			}
		}
		bound[i] = links - movedNbrs[i] + dirtyOff[i+1] - dirtyOff[i]
	}

	np.off = make([]int64, pl.n+1)
	np.buildRows(bound, func(i int, ids []int32) {
		if moved[i] {
			np.appendScratchRow(i, grid, rsq, ids)
			return
		}
		dirty := dirtyJ[dirtyOff[i]:dirtyOff[i+1]]
		if len(dirty) == 0 && movedNbrs[i] == 0 {
			// Untouched row: no mover entered the candidate radius and no
			// existing neighbor moved, so the row is the old one verbatim,
			// bound[i] links long, and its bytes are copied as they are.
			// When few stations move this is most rows; Markov movers
			// spread over a city leave almost none (1 of the 18,225 rows
			// of the 2000-station benchmark city's nine epochs).
			np.rows = append(np.rows, pl.row(i)...)
			np.links += int(bound[i])
			return
		}
		np.appendPatchedRow(i, pl, moved, dirty, ids)
	})
	return np
}

// RowEqual reports whether station i's row is the same link for link in pl
// and other (two plans over the same station count) because nothing it
// depends on changed: it stores the same neighbors, and neither station i
// nor any of them moved between the two plans. Every link attribute is a
// function of its two positions, so such rows hold the same distances and
// hence the same delivery probabilities — the epoch table rebuild uses this
// to copy the table rows of stations whose neighborhood did not change. A
// row it does not call equal may still be: recomputing it gives the same
// values.
func (pl *LinkPlan) RowEqual(other *LinkPlan, i int) bool {
	row := pl.row(i)
	if pl.positions[i] != other.positions[i] || !bytes.Equal(row, other.row(i)) {
		return false
	}
	for k, j := 0, int32(0); k < len(row); {
		if k, j = nextID(row, k, j); pl.positions[j] != other.positions[j] {
			return false
		}
	}
	return true
}

// appendPatchedRow rebuilds unmoved station i's row, into ids, by merging
// the old row minus its moved neighbours with the dirty moved stations that
// clear the power predicate, and appends it. Both are in ascending ID order
// — the dirty list is — and they can never collide (dirty IDs are moved
// stations, survivors are not), so one O(k) zip reproduces the full build's
// sorted row.
func (np *LinkPlan) appendPatchedRow(i int, old *LinkPlan, moved []bool, dirty []int32, ids []int32) {
	row, k, id := old.row(i), 0, int32(0)
	survivors := func(below int32) {
		for k < len(row) {
			next, j := nextID(row, k, id)
			if j >= below {
				return
			}
			if k, id = next, j; !moved[j] {
				ids = append(ids, j)
			}
		}
	}
	for _, j := range dirty {
		if np.keeps(i, j) {
			survivors(j)
			ids = append(ids, j)
		}
	}
	survivors(math.MaxInt32)
	np.appendIDs(ids)
}

// Positions returns the station positions the plan was built over. The
// returned slice aliases the plan's immutable storage: callers must treat
// it as read-only.
func (pl *LinkPlan) Positions() []Pos { return pl.positions }

// Pos returns station i's position.
func (pl *LinkPlan) Pos(i int) Pos { return pl.positions[i] }
