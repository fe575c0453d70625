package dist

// NumCells is the grid's flat cell count, which only the tests ask a
// CellSet for: see sizedCells.
func (g GridCells) NumCells() int { return g.Plan.NumCells() }

// sizedCells is a CellSet that reports its cell count.
type sizedCells interface {
	CellSet
	NumCells() int
}
