package experiments

import (
	"ripple/internal/campaign"
	"ripple/internal/network"
)

// tableGrid declares one figure or table of the paper as a campaign grid:
// a row axis, a column axis, a scenario builder and a metric. Every driver
// in this package is such a declaration; scheduling, seed averaging and
// CI accumulation all happen in the campaign engine on the shared bounded
// pool.
type tableGrid struct {
	ID, Title, Unit string
	Rows            []string
	Cols            []string
	// Config builds the scenario for cell (row, col). When PerRow is set
	// the columns are metrics, not scenario variants: Config is called
	// once per row with col == -1 and every column reads a different
	// metric from that single run.
	PerRow bool
	Config func(row, col int) (network.Config, error)
	// Metric extracts the cell value from a result (the seed-averaged
	// result for the table cells, per-seed results for the CIs).
	Metric func(row, col int, res *network.Result) float64
}

// run executes the grid and folds its cells into a Table.
func (tg tableGrid) run(opt Options) (*Table, error) {
	res, err := tg.execute(opt)
	if err != nil {
		return nil, err
	}
	return tg.fold(opt, res), nil
}

// execute expands the declaration into a campaign.Grid and runs it, through
// Options.RunGrid when that is set.
func (tg tableGrid) execute(opt Options) (*campaign.Result, error) {
	opt = opt.normalize()
	axes := []campaign.Axis{campaign.A("row", tg.Rows...)}
	if !tg.PerRow {
		axes = append(axes, campaign.A("col", tg.Cols...))
	}
	g := campaign.Grid{
		Name:     tg.ID,
		Axes:     axes,
		Seeds:    opt.Seeds,
		Pool:     opt.Pool,
		Progress: opt.Progress,
		Build: func(pt campaign.Point) (network.Config, error) {
			col := -1
			if !tg.PerRow {
				col = pt.Index("col")
			}
			cfg, err := tg.Config(pt.Index("row"), col)
			cfg.Duration = opt.Duration
			if opt.PruneSigma != nil {
				cfg.Radio.PruneSigma = *opt.PruneSigma
			}
			return cfg, err
		},
	}
	if opt.RunGrid != nil {
		return opt.RunGrid(&g)
	}
	return g.Run()
}

// fold reads the declaration's metric off every cell of a result the grid
// was executed into, so one result can fold into several tables. With more
// than one seed every cell also carries its 95% confidence half-width.
func (tg tableGrid) fold(opt Options, res *campaign.Result) *Table {
	tab := &Table{ID: tg.ID, Title: tg.Title, Unit: tg.Unit, Columns: tg.Cols}
	if res == nil {
		// Worker side of a distributed run: the cells were executed and
		// streamed elsewhere; emit a placeholder of the right shape without
		// evaluating any metric (there are no local results to read).
		for r := range tg.Rows {
			tab.Rows = append(tab.Rows, Row{Label: tg.Rows[r], Cells: make([]float64, len(tg.Cols))})
		}
		return tab
	}
	multiSeed := len(opt.normalize().Seeds) > 1
	for r := range tg.Rows {
		row := Row{Label: tg.Rows[r]}
		for c := range tg.Cols {
			var cell *campaign.Cell
			if tg.PerRow {
				cell = res.Cell(r)
			} else {
				cell = res.Cell(r, c)
			}
			row.Cells = append(row.Cells, tg.Metric(r, c, cell.Mean))
			if multiSeed {
				s := cell.Stat(func(sr *network.Result) float64 { return tg.Metric(r, c, sr) })
				row.CIs = append(row.CIs, s.CI95)
			}
		}
		tab.Rows = append(tab.Rows, row)
	}
	return tab
}
