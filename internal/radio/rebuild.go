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
// copied verbatim from old (the lookup's slots are row-relative, so the
// copy needs no adjustment).
func (np *LinkPlan) appendCopiedRow(i int, old *LinkPlan) {
	lo, hi := old.off[i], old.off[i+1]
	np.nbrID = append(np.nbrID, old.nbrID[lo:hi]...)
	np.nbrDBm = append(np.nbrDBm, old.nbrDBm[lo:hi]...)
	np.nbrDist = append(np.nbrDist, old.nbrDist[lo:hi]...)
	np.nbrPD = append(np.nbrPD, old.nbrPD[lo:hi]...)
	np.lookID = append(np.lookID, old.lookID[lo:hi]...)
	np.lookSlot = append(np.lookSlot, old.lookSlot[lo:hi]...)
	np.off[i+1] = int64(len(np.nbrID))
}

// RowEqual reports whether station i's row stores the same neighbors at
// the same distances in pl and other (two plans over the same station
// count). Distances determine delivery probabilities, so equal rows yield
// identical routing-table rows — the epoch table rebuild uses this to
// copy rows of stations whose neighborhood geometry did not change.
func (pl *LinkPlan) RowEqual(other *LinkPlan, i int) bool {
	lo, hi := pl.off[i], pl.off[i+1]
	olo, ohi := other.off[i], other.off[i+1]
	return hi-lo == ohi-olo &&
		slices.Equal(pl.nbrID[lo:hi], other.nbrID[olo:ohi]) &&
		slices.Equal(pl.nbrDist[lo:hi], other.nbrDist[olo:ohi])
}

// appendPatchedRow rebuilds unmoved station i's row by merging the old
// row (minus entries whose neighbor moved) with freshly computed entries
// for the dirty moved stations that still clear the power predicate. Both
// inputs are sorted by the row order (power desc, ID asc) — surviving old
// entries keep their relative order, fresh ones are sorted here — so one
// merge reproduces the full build's sort exactly, and each run of
// survivors between two fresh entries is appended in bulk. The lookup
// index is built by a second merge rather than appendRowLookup's sort: the
// surviving old lookup is already in ascending ID order, the few fresh
// entries are sorted as packed (ID, slot) keys, and the two can never
// collide (dirty IDs are moved stations, survivors are not), so with the
// new slots recorded during the row merge the O(k log k) per-row sort
// becomes an O(k) zip.
func (np *LinkPlan) appendPatchedRow(i int, old *LinkPlan, moved []bool, dirty []int32, s *rowScratch) {
	s.ent = s.ent[:0]
	for _, j := range dirty {
		d := Dist(np.positions[i], np.positions[j])
		p := np.cfg.MeanRxPowerDBm(d)
		if p < np.pruneCutoff {
			continue
		}
		s.ent = append(s.ent, rowEntry{dbm: p, dist: d, id: j})
	}
	slices.SortFunc(s.ent, rowOrder)

	lo, hi := old.off[i], old.off[i+1]
	s.oldSlot = growSlots(s.oldSlot, int(hi-lo))
	s.keys = s.keys[:0]
	rowStart := len(np.nbrID)

	k, m := lo, 0
	for k < hi || m < len(s.ent) {
		if k < hi && moved[old.nbrID[k]] {
			k++
			continue
		}
		// The run of survivors from k that precede fresh entry m.
		k2, slot := k, int32(len(np.nbrID)-rowStart)
		for k2 < hi && !moved[old.nbrID[k2]] && (m == len(s.ent) || oldFirst(old, k2, s.ent[m])) {
			s.oldSlot[k2-lo] = slot
			k2++
			slot++
		}
		if k2 > k {
			np.nbrID = append(np.nbrID, old.nbrID[k:k2]...)
			np.nbrDBm = append(np.nbrDBm, old.nbrDBm[k:k2]...)
			np.nbrDist = append(np.nbrDist, old.nbrDist[k:k2]...)
			np.nbrPD = append(np.nbrPD, old.nbrPD[k:k2]...)
			k = k2
			continue
		}
		// Entry k, if any, is a survivor that follows fresh entry m.
		e := s.ent[m]
		m++
		s.keys = append(s.keys, uint64(e.id)<<32|uint64(slot))
		np.nbrID = append(np.nbrID, e.id)
		np.nbrDBm = append(np.nbrDBm, e.dbm)
		np.nbrDist = append(np.nbrDist, e.dist)
		np.nbrPD = append(np.nbrPD, propDelay(e.dist))
	}

	slices.Sort(s.keys)
	t, f := lo, 0
	for t < hi || f < len(s.keys) {
		if t < hi && moved[old.lookID[t]] {
			t++
			continue
		}
		if t < hi && (f == len(s.keys) || old.lookID[t] < int32(s.keys[f]>>32)) {
			np.lookID = append(np.lookID, old.lookID[t])
			np.lookSlot = append(np.lookSlot, s.oldSlot[old.lookSlot[t]])
			t++
		} else {
			np.lookID = append(np.lookID, int32(s.keys[f]>>32))
			np.lookSlot = append(np.lookSlot, int32(uint32(s.keys[f])))
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

// growSlots resizes a scratch slot-map to n entries, reusing its backing
// array when it is large enough (values are fully rewritten each row).
func growSlots(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// Positions returns the station positions the plan was built over. The
// returned slice aliases the plan's immutable storage: callers must treat
// it as read-only.
func (pl *LinkPlan) Positions() []Pos { return pl.positions }

// Pos returns station i's position.
func (pl *LinkPlan) Pos(i int) Pos { return pl.positions[i] }
