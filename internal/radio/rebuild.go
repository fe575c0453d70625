package radio

import (
	"encoding/binary"
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
// with the moved stations now in range, spliced from the old row's bytes
// (appendSplicedRow). Moved stations' own rows rebuild from scratch
// through the spatial grid. When more than a quarter of the
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
		keep:        pl.keep,
	}
	radius := np.pruneRadius()
	rsq := radius * radius
	grid := newPosGrid(np.positions, radius)

	// Dirty pass: for every moved station j, every station within the
	// candidate radius of j's NEW position may now need j in its row.
	// (j's old neighbourhood needs no lookup: the splice below drops every
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

	// An unmoved row holds at most its old links, less its moved
	// neighbours, plus its dirty candidates — the exact predicate can only
	// reject boundary candidates, as in buildPruned. Its old links are
	// counted from its bytes without decoding them (rowLinks), and its moved
	// neighbours are the rows the movers' old rows name, rows being
	// symmetric. However far a step densifies the graph, no row outgrows its
	// bound and the row pass never reallocates.
	for i := 0; i < pl.n; i++ {
		if !moved[i] {
			bound[i] = int32(rowLinks(pl.row(i))) + dirtyOff[i+1] - dirtyOff[i]
		}
	}
	for _, j := range movedIdx {
		row := pl.row(int(j))
		for k, i := 0, int32(0); k < len(row); {
			if k, i = nextID(row, k, i); !moved[i] {
				bound[i]--
			}
		}
	}

	np.off = make([]int64, pl.n+1)
	seen := make([]uint64, (pl.n+63)/64)
	np.buildRows(bound, func(i int) {
		if moved[i] {
			np.appendScratchRow(i, grid, rsq, seen)
			return
		}
		np.appendSplicedRow(i, pl.row(i), moved, dirtyJ[dirtyOff[i]:dirtyOff[i+1]])
	})
	return np
}

// appendSplicedRow appends unmoved station i's row, spliced from its old
// encoded row: the old row minus its moved neighbours, merged in ID order
// with the dirty movers the power predicate keeps. Both are ascending —
// the dirty list is — and they never collide (dirty IDs are movers,
// survivors are not), so one pass reproduces the full build's row. Between
// two changes the survivors are copied as they are, gap bytes and all, but
// for the first one's gap when the ID before it dropped out or an inserted
// mover now precedes it: only that gap is encoded again. The row is decoded
// once, to find where the changes fall, and a row no mover touches is its
// old bytes verbatim. Markov movers spread over a city leave few such rows
// (1 of the 18,225 rows of the 2000-station benchmark city's nine epochs).
func (np *LinkPlan) appendSplicedRow(i int, row []byte, moved []bool, dirty []int32) {
	// row[k:] holds the old IDs after id, the next of them j (decoded up to
	// next) while k < len(row); last is the ID written last.
	out, links := np.rows, 0
	k, id, last := 0, int32(0), int32(0)
	for {
		m := int32(math.MaxInt32)
		if len(dirty) > 0 {
			m = dirty[0]
		}
		from, base := k, id
		next, j := k, int32(0)
		for k < len(row) {
			if next, j = nextID(row, k, id); j >= m || moved[j] {
				break
			}
			k, id, links = next, j, links+1
		}
		if k > from {
			if base != last {
				at, first := nextID(row, from, base)
				out, from = binary.AppendUvarint(out, uint64(first-last)), at
			}
			out, last = append(out, row[from:k]...), id
		}
		more := k < len(row)
		if more && j < m {
			k, id = next, j // a moved neighbour: it drops out
			continue
		}
		if len(dirty) == 0 {
			break
		}
		if more && j == m {
			k, id = next, j // the mover's old place, if it had one
		}
		if np.keeps(i, m) {
			out, last, links = binary.AppendUvarint(out, uint64(m-last)), m, links+1
		}
		dirty = dirty[1:]
	}
	np.rows, np.links = out, np.links+links
}

// Positions returns the station positions the plan was built over. The
// returned slice aliases the plan's immutable storage: callers must treat
// it as read-only.
func (pl *LinkPlan) Positions() []Pos { return pl.positions }
