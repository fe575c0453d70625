package experiments

import (
	"testing"

	"ripple/internal/sim"
)

// TestEveryExperimentRuns executes every registered experiment (paper
// figures and ablations) on a micro budget, checking only structural
// soundness: tables render, every row has a cell per column, and values are
// finite and non-negative. It is the every-driver sweep that runs under the
// race detector, where the tests of the shared quick run skip; the values
// are pinned by TestTablesPinned and the shapes asserted on that run.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps every driver")
	}
	opt := Options{Seeds: []uint64{1}, Duration: 300 * sim.Millisecond}
	all := append(All(), Ablations()...)
	for _, r := range all {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			t.Parallel()
			tables, err := r.Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tab := range tables {
				if tab.ID == "" || tab.Title == "" {
					t.Errorf("table missing identity: %+v", tab)
				}
				if len(tab.Rows) == 0 || len(tab.Columns) == 0 {
					t.Errorf("%s: empty table", tab.ID)
				}
				for _, row := range tab.Rows {
					if len(row.Cells) != len(tab.Columns) {
						t.Errorf("%s/%s: %d cells for %d columns",
							tab.ID, row.Label, len(row.Cells), len(tab.Columns))
					}
					for i, v := range row.Cells {
						if v < 0 || v != v { // negative or NaN
							t.Errorf("%s/%s/%s: bad value %v",
								tab.ID, row.Label, tab.Columns[i], v)
						}
					}
				}
				if tab.Format() == "" {
					t.Errorf("%s: Format produced nothing", tab.ID)
				}
			}
		})
	}
}
