package radio

import "math"

// maxGridCells bounds a position grid at 16 MB of cell offsets. Every
// workload's grid is far smaller: a 20 000-station city needs a few hundred
// cells, and a city with one station 10⁶ m out about half a million.
const maxGridCells = 1 << 22

// posGrid is a uniform spatial index over station positions: stations are
// bucketed into square cells whose side is the query radius, so every pair
// within that radius of each other lies in the same or an adjacent cell.
// NewLinkPlan uses it to enumerate candidate neighbor pairs in O(N·k)
// instead of probing all N² ordered pairs — the enabling structure for
// city-scale (10k+ station) worlds.
//
// The grid is a pure candidate filter: it may offer pairs slightly beyond
// the radius (anything in the 3×3 cell neighborhood passes the cheap
// squared-distance gate), and the caller applies its exact predicate to
// each candidate. It can therefore never change which pairs a plan keeps,
// only how many pairs are examined.
type posGrid struct {
	minX, minY float64
	inv        float64 // 1 / cell side
	cols, rows int
	// CSR buckets: stations of cell c occupy items[start[c]:start[c+1]],
	// in ascending station-ID order (counting sort preserves input order).
	start []int32
	items []int32
}

// newPosGrid buckets the positions into cells of the given side (metres).
func newPosGrid(positions []Pos, cell float64) *posGrid {
	g := &posGrid{inv: 1 / cell}
	if len(positions) == 0 {
		g.cols, g.rows = 1, 1
		g.start = make([]int32, 2)
		return g
	}
	g.minX, g.minY = positions[0].X, positions[0].Y
	maxX, maxY := g.minX, g.minY
	for _, p := range positions[1:] {
		if p.X < g.minX {
			g.minX = p.X
		}
		if p.X > maxX {
			maxX = p.X
		}
		if p.Y < g.minY {
			g.minY = p.Y
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	// A layout far wider than the radius — a few stations continents apart
	// — would ask for a cell per radius² of its bounding box. Doubling the
	// side until the grid fits maxGridCells keeps every in-radius pair in
	// adjacent cells, so it changes how many candidates are examined, never
	// which.
	for {
		cols, rows := math.Floor((maxX-g.minX)*g.inv)+1, math.Floor((maxY-g.minY)*g.inv)+1
		if cols*rows <= maxGridCells {
			g.cols, g.rows = int(cols), int(rows)
			break
		}
		g.inv /= 2
	}

	// Counting sort into CSR buckets.
	cells := make([]int32, len(positions))
	g.start = make([]int32, g.cols*g.rows+1)
	for i, p := range positions {
		cells[i] = int32(g.cellOf(p))
		g.start[cells[i]+1]++
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	g.items = make([]int32, len(positions))
	cursor := append([]int32(nil), g.start[:len(g.start)-1]...)
	for i := range positions {
		g.items[cursor[cells[i]]] = int32(i)
		cursor[cells[i]]++
	}
	return g
}

// cellOf maps a position to its cell index (clamped to the grid, so
// boundary rounding can never index out of range).
func (g *posGrid) cellOf(p Pos) int {
	cx := int((p.X - g.minX) * g.inv)
	cy := int((p.Y - g.minY) * g.inv)
	if cx < 0 {
		cx = 0
	} else if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= g.rows {
		cy = g.rows - 1
	}
	return cy*g.cols + cx
}

// eachCandidate visits every station j ≠ i in the 3×3 cell neighborhood of
// station i whose squared distance to i is at most rsq, passing j's index.
// Visit order is by cell (row-major) and by ascending station ID within a
// cell; callers that need a specific neighbor order sort afterwards.
func (g *posGrid) eachCandidate(i int, positions []Pos, rsq float64, visit func(j int32)) {
	pi := positions[i]
	cx := int((pi.X - g.minX) * g.inv)
	cy := int((pi.Y - g.minY) * g.inv)
	for gy := cy - 1; gy <= cy+1; gy++ {
		if gy < 0 || gy >= g.rows {
			continue
		}
		for gx := cx - 1; gx <= cx+1; gx++ {
			if gx < 0 || gx >= g.cols {
				continue
			}
			c := gy*g.cols + gx
			for _, j := range g.items[g.start[c]:g.start[c+1]] {
				if int(j) == i {
					continue
				}
				dx := pi.X - positions[j].X
				dy := pi.Y - positions[j].Y
				if float64(dx*dx)+float64(dy*dy) <= rsq {
					visit(j)
				}
			}
		}
	}
}
