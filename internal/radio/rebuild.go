package radio

import "slices"

// Rebuild returns the LinkPlan for the same radio Config over new station
// positions, reusing this plan's rows wherever it can. It is the epoch
// step of a time-varying world: mobility models leave most stations with
// bit-identical coordinates each epoch, so most CSR rows survive
// unchanged and only rows touching a moved station are recomputed.
//
// The result is exactly NewLinkPlan(cfg, positions) — same kept pairs,
// same attributes, same row order, bit for bit (the rebuild equivalence
// test diffs every array to keep it that way). The receiving plan is not
// modified; when no station moved at all it is returned as-is (both
// plans are immutable, so sharing is safe).
//
// For an unmoved station the patch is a single merge: its old row minus
// entries whose neighbor moved, interleaved (in the row's power order)
// with freshly computed entries for moved stations now in range. Moved
// stations' own rows rebuild from scratch through the spatial grid. When
// more than a quarter of the population moved the patch has no advantage
// and Rebuild falls back to a full build, as it does for unpruned plans
// (dense worlds are small enough that a full O(N²) build is cheap).
func (pl *LinkPlan) Rebuild(positions []Pos) *LinkPlan {
	return pl.rebuild(positions, 0)
}

// rebuild is Rebuild with the row builder's chunk count (see buildRows; 0
// lets the plan's size choose it).
func (pl *LinkPlan) rebuild(positions []Pos, chunks int) *LinkPlan {
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
		return newLinkPlan(pl.cfg, positions, chunks)
	}

	np := &LinkPlan{
		cfg:         pl.cfg,
		positions:   append([]Pos(nil), positions...),
		n:           pl.n,
		pruned:      true,
		pruneCutoff: pl.pruneCutoff,
	}
	radius := np.cfg.rangeFor(np.pruneCutoff) * 1.001
	if radius < 1 {
		radius = 1 // matches buildPruned's sub-metre clamp
	}
	rsq := radius * radius
	grid := newPosGrid(np.positions, radius)

	// Dirty pass: for every moved station j, every station within the
	// candidate radius of j's NEW position may now need a row entry for j.
	// (Entries for j's old neighborhood need no lookup: the merge below
	// drops every entry pointing at a moved station and re-adds only those
	// the predicate still keeps.) Candidates are symmetric-by-distance, so
	// querying around j finds exactly the rows whose candidate set gained
	// j. Stored as a CSR over rows; each row's dirty list is in ascending
	// moved-station order because movedIdx is ascending. The same pass
	// counts each mover's candidates: the bound on its own row.
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

	// movedNbrs[i] is how many of unmoved row i's old entries point at a
	// mover, the entries the merge drops; the rest survive as they are. An
	// unmoved row holds at most its survivors plus its dirty candidates —
	// the exact predicate can only reject boundary candidates, as in
	// buildPruned — so however far a step densifies the graph, no row
	// outgrows its bound and the row pass never reallocates.
	movedNbrs := make([]int32, pl.n)
	for i := 0; i < pl.n; i++ {
		if moved[i] {
			continue
		}
		row := pl.nbrID[pl.off[i]:pl.off[i+1]]
		for _, id := range row {
			if moved[id] {
				movedNbrs[i]++
			}
		}
		bound[i] = int32(len(row)) - movedNbrs[i] + dirtyOff[i+1] - dirtyOff[i]
	}

	np.off = make([]int64, pl.n+1)
	np.buildRows(bound, chunks, func(v *LinkPlan, i int, s *rowScratch) {
		if moved[i] {
			v.appendScratchRow(i, grid, rsq, s)
			return
		}
		dirty := dirtyJ[dirtyOff[i]:dirtyOff[i+1]]
		if len(dirty) == 0 && movedNbrs[i] == 0 {
			// Untouched row: no mover entered the candidate radius and no
			// existing neighbor moved, so the row — entries, order, lookup —
			// is the old one verbatim. On a high-stay world this is nearly
			// every row, and the bulk copy is what keeps the per-epoch cost
			// proportional to the motion instead of the population.
			v.appendCopiedRow(i, pl)
			return
		}
		v.appendPatchedRow(i, pl, moved, dirty, s)
	})
	np.indexDelayOrder()
	return np
}

// appendCopiedRow appends station i's row — primary arrays and lookup —
// copied verbatim from old.
func (np *LinkPlan) appendCopiedRow(i int, old *LinkPlan) {
	lo, hi := old.off[i], old.off[i+1]
	np.nbrID = append(np.nbrID, old.nbrID[lo:hi]...)
	np.nbrDBm = append(np.nbrDBm, old.nbrDBm[lo:hi]...)
	np.nbrPD = append(np.nbrPD, old.nbrPD[lo:hi]...)
	np.lookID = append(np.lookID, old.lookID[lo:hi]...)
	np.off[i+1] = int64(len(np.nbrID))
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
	lo, hi := pl.off[i], pl.off[i+1]
	olo, ohi := other.off[i], other.off[i+1]
	ids := pl.nbrID[lo:hi]
	if pl.positions[i] != other.positions[i] || !slices.Equal(ids, other.nbrID[olo:ohi]) {
		return false
	}
	for _, j := range ids {
		if pl.positions[j] != other.positions[j] {
			return false
		}
	}
	return true
}

// appendPatchedRow rebuilds unmoved station i's row by merging the old
// row (minus entries whose neighbor moved) with freshly computed entries
// for the dirty moved stations that still clear the power predicate. Both
// inputs are sorted by the row order (power desc, ID asc) — surviving old
// entries keep their relative order, fresh ones are sorted here — so one
// merge reproduces the full build's sort exactly, and each run of
// survivors between two fresh entries is appended in bulk. The lookup
// index is a second merge rather than appendScratchRow's sort: the
// surviving old lookup is in ascending ID order, so are the fresh IDs (the
// dirty list is), and the two can never collide (dirty IDs are moved
// stations, survivors are not), so the O(k log k) per-row sort becomes an
// O(k) zip.
func (np *LinkPlan) appendPatchedRow(i int, old *LinkPlan, moved []bool, dirty []int32, s *rowScratch) {
	s.ent, s.fresh = s.ent[:0], s.fresh[:0]
	for _, j := range dirty {
		if e, ok := np.entry(i, j); ok {
			s.ent = append(s.ent, e)
			s.fresh = append(s.fresh, j)
		}
	}
	slices.SortFunc(s.ent, rowOrder)

	lo, hi := old.off[i], old.off[i+1]
	k, m := lo, 0
	for k < hi || m < len(s.ent) {
		if k < hi && moved[old.nbrID[k]] {
			k++
			continue
		}
		// The run of survivors from k that precede fresh entry m.
		k2 := k
		for k2 < hi && !moved[old.nbrID[k2]] && (m == len(s.ent) || oldFirst(old, k2, s.ent[m])) {
			k2++
		}
		if k2 > k {
			np.nbrID = append(np.nbrID, old.nbrID[k:k2]...)
			np.nbrDBm = append(np.nbrDBm, old.nbrDBm[k:k2]...)
			np.nbrPD = append(np.nbrPD, old.nbrPD[k:k2]...)
			k = k2
			continue
		}
		// Entry k, if any, is a survivor that follows fresh entry m.
		e := s.ent[m]
		m++
		np.nbrID = append(np.nbrID, e.id)
		np.nbrDBm = append(np.nbrDBm, e.dbm)
		np.nbrPD = append(np.nbrPD, e.pd)
	}

	t, f := lo, 0
	for t < hi || f < len(s.fresh) {
		if t < hi && moved[old.lookID[t]] {
			t++
			continue
		}
		if t < hi && (f == len(s.fresh) || old.lookID[t] < s.fresh[f]) {
			np.lookID = append(np.lookID, old.lookID[t])
			t++
		} else {
			np.lookID = append(np.lookID, s.fresh[f])
			f++
		}
	}
	np.off[i+1] = int64(len(np.nbrID))
}

// oldFirst reports whether old's entry k precedes e in the row order.
func oldFirst(old *LinkPlan, k int64, e rowEntry) bool {
	if old.nbrDBm[k] != e.dbm {
		return old.nbrDBm[k] > e.dbm
	}
	return old.nbrID[k] < e.id
}

// Positions returns the station positions the plan was built over. The
// returned slice aliases the plan's immutable storage: callers must treat
// it as read-only.
func (pl *LinkPlan) Positions() []Pos { return pl.positions }

// Pos returns station i's position.
func (pl *LinkPlan) Pos(i int) Pos { return pl.positions[i] }
