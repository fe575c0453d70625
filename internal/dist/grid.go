package dist

import (
	"encoding/json"
	"fmt"

	"ripple/internal/campaign"
	"ripple/internal/campaign/pool"
	"ripple/internal/network"
	"ripple/internal/stats"
)

// GridCells adapts a campaign.Plan to the worker-side CellSet interface.
// A cell's payload is its per-seed []*network.Result slice: every field
// is a float64 or integer, both of which round-trip Go JSON exactly, so
// the coordinator reassembles results bit-identical to an in-process
// run. The Welford states cover the standard summary metrics.
type GridCells struct {
	Plan *campaign.Plan
	Pool *pool.Pool // seed-level parallelism within a cell; nil = shared
}

// Fingerprint implements CellSet.
func (g GridCells) Fingerprint() string { return g.Plan.Fingerprint() }

// RunCell implements CellSet: all seeds of one cell, plus the metric
// summary states the coordinator merges across cells.
func (g GridCells) RunCell(c int) (any, map[string]stats.State, error) {
	seeds, err := g.Plan.RunCell(c, g.Pool)
	if err != nil {
		return nil, nil, err
	}
	return seeds, ResultStats(seeds), nil
}

// ResultStats accumulates the standard metric vector over one cell's
// per-seed results. These states ride along with every cell for
// checkpoint summaries and coordinator-side merging; the authoritative
// table values still come from the payloads.
func ResultStats(seeds []*network.Result) map[string]stats.State {
	var total, fairness, events stats.Welford
	for _, r := range seeds {
		total.Add(r.TotalMbps)
		fairness.Add(r.Fairness)
		events.Add(float64(r.Events))
	}
	return map[string]stats.State{
		"total_mbps": total.State(),
		"fairness":   fairness.State(),
		"events":     events.State(),
	}
}

// CoordinatorRunGrid adapts a coordinator to the experiment layer's
// RunGrid hook: every grid an experiment driver declares is farmed out
// to the workers instead of running in-process.
func CoordinatorRunGrid(c *Coordinator) func(*campaign.Grid) (*campaign.Result, error) {
	return func(g *campaign.Grid) (*campaign.Result, error) {
		return ExecuteGrid(c, g)
	}
}

// WorkerRunGrid is the worker-side RunGrid hook: the process runs the
// same driver sequence as the coordinator, but each grid's cells execute
// as leased and stream over the connection; the nil result tells the
// driver there is no local table to fold. w is typically a Worker, or a
// Redialer when the connection should survive coordinator outages.
func WorkerRunGrid(w GridServer, pl *pool.Pool) func(*campaign.Grid) (*campaign.Result, error) {
	return func(g *campaign.Grid) (*campaign.Result, error) {
		plan, err := g.Plan()
		if err != nil {
			return nil, err
		}
		if err := w.ServeGrid(GridCells{Plan: plan, Pool: pl}); err != nil {
			return nil, err
		}
		return nil, nil
	}
}

// ExecuteGrid runs one campaign grid on the coordinator's workers and
// assembles the result a single-process g.Run() would have produced.
func ExecuteGrid(c *Coordinator, g *campaign.Grid) (*campaign.Result, error) {
	plan, err := g.Plan()
	if err != nil {
		return nil, err
	}
	return ExecutePlan(c, plan, g.Progress)
}

// ExecutePlan runs one plan on the coordinator's workers and assembles
// the result plan.Run would have produced in-process. This is the
// coordinator-side counterpart of ServeGrid(GridCells{...}). progress
// counts runs as cells × the first cell's seed count, which is exact for
// the plans the tree builds (a grid's cells share one seed list; a
// distributed batch has one seed per cell).
func ExecutePlan(c *Coordinator, plan *campaign.Plan, progress func(done, total int)) (*campaign.Result, error) {
	fp := plan.Fingerprint()
	out, err := c.RunGrid(GridSpec{
		Fingerprint: fp,
		NumCells:    plan.NumCells(),
		RunsPerCell: len(plan.Seeds(0)),
		Progress:    progress,
	})
	if err != nil {
		return nil, err
	}
	perCell := make([][]*network.Result, plan.NumCells())
	for i, raw := range out.Payloads {
		if err := json.Unmarshal(raw, &perCell[i]); err != nil {
			return nil, fmt.Errorf("dist: grid %s cell %d payload: %w", fp, i, err)
		}
	}
	return plan.Assemble(perCell)
}
