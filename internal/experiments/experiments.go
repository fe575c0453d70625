// Package experiments regenerates every table and figure of the paper's
// evaluation (§II motivation numbers, Figs. 3-8 and 10/12, Tables I-III).
// Each experiment is a declarative campaign grid (rows × columns × seeds)
// whose runs execute on the shared bounded worker pool; cells report the
// seed mean and, with multiple seeds, a 95% confidence half-width.
package experiments

import (
	"fmt"
	"strings"

	"ripple/internal/campaign"
	"ripple/internal/campaign/pool"
	"ripple/internal/network"
	"ripple/internal/sim"
)

// Options controls experiment execution.
type Options struct {
	// Seeds to average over (paper: "averages over multiple runs").
	Seeds []uint64
	// Duration of each run (Table I: 10 s).
	Duration sim.Time
	// Pool schedules the grid's runs (nil = the shared GOMAXPROCS pool).
	Pool *pool.Pool
	// Progress, when non-nil, is called after each completed run of an
	// experiment's grid with (done, total). Calls are serialized.
	Progress func(done, total int)
	// PruneSigma, when non-nil, overrides radio.Config.PruneSigma in every
	// scenario of every experiment (0 forces the exact, unpruned medium —
	// the byte-identical regression baseline; nil keeps each scenario's
	// profile default).
	PruneSigma *float64
	// RunGrid, when non-nil, replaces in-process grid execution: every
	// driver routes its campaign grid through this hook instead of calling
	// Grid.Run. The distributed layer supplies both sides: a coordinator
	// hook farms the grid out to workers and returns the assembled result;
	// a worker hook executes leased cells, streams them back and returns
	// (nil, nil) — the driver then emits a zero-valued table of the right
	// shape without touching any metric (worker output is discarded; the
	// protocol stream is the real product).
	RunGrid func(g *campaign.Grid) (*campaign.Result, error)
}

// Quick returns reduced settings for tests and iteration: one seed, 2 s.
func Quick() Options {
	return Options{Seeds: []uint64{1}, Duration: 2 * sim.Second}
}

func (o Options) normalize() Options {
	if len(o.Seeds) == 0 {
		o.Seeds = []uint64{1, 2, 3}
	}
	if o.Duration == 0 {
		o.Duration = 10 * sim.Second
	}
	return o
}

// Table is one regenerated figure or table.
type Table struct {
	ID      string // e.g. "fig3a"
	Title   string
	Unit    string
	Columns []string
	Rows    []Row
}

// Row is one line of a Table.
type Row struct {
	Label string
	Cells []float64
	// CIs holds the per-cell 95% confidence half-widths (same indexing as
	// Cells); nil when the table was produced from a single seed.
	CIs []float64
}

// Format renders the table as aligned text. Cells of multi-seed tables
// print as "mean ±ci95".
func (t *Table) Format() string {
	hasCI := false
	for _, r := range t.Rows {
		if len(r.CIs) > 0 {
			hasCI = true
			break
		}
	}
	width := 12
	if hasCI {
		width = 18
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s", t.ID, t.Title)
	if t.Unit != "" {
		fmt.Fprintf(&b, " (%s)", t.Unit)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-16s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%*s", width, c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-16s", r.Label)
		for i, v := range r.Cells {
			if i < len(r.CIs) {
				fmt.Fprintf(&b, "%*s", width, fmt.Sprintf("%.2f ±%.2f", v, r.CIs[i]))
			} else {
				fmt.Fprintf(&b, "%*.2f", width, v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// totalTCP sums throughput over all TCP flows in a result.
func totalTCP(res *network.Result) float64 {
	var sum float64
	for _, f := range res.Flows {
		if f.Kind == network.FTP || f.Kind == network.Web {
			sum += f.ThroughputMbps
		}
	}
	return sum
}

// Runner is a named experiment.
type Runner struct {
	Name string
	Run  func(Options) ([]*Table, error)
}

// Record is one experiment's output in its JSON form: an element of
// cmd/experiments' -json array, and a file of the table corpus under
// testdata/tables.
type Record struct {
	Experiment string   `json:"experiment"`
	Tables     []*Table `json:"tables"`
}

// All returns every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"motivation", func(o Options) ([]*Table, error) { t, err := Motivation(o); return wrap(t, err) }},
		{"fig3", Fig3},
		{"fig4", Fig4},
		{"fig6a", func(o Options) ([]*Table, error) { t, err := Fig6a(o); return wrap(t, err) }},
		{"fig6b", func(o Options) ([]*Table, error) { t, err := Fig6b(o); return wrap(t, err) }},
		{"fig7", Fig7},
		{"fig8", func(o Options) ([]*Table, error) { t, err := Fig8(o); return wrap(t, err) }},
		{"table3", func(o Options) ([]*Table, error) { t, err := Table3(o); return wrap(t, err) }},
		{"fig10", Fig10},
		{"fig12", Fig12},
	}
}

func wrap(t *Table, err error) ([]*Table, error) {
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}
