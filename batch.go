package ripple

import (
	"fmt"

	"ripple/internal/campaign"
	"ripple/internal/campaign/pool"
	"ripple/internal/network"
	"ripple/internal/trace"
)

// Campaign is a batch of scenarios executed together on the bounded worker
// pool. Every (scenario × seed) run is an independent unit, so a campaign
// with a handful of scenarios and several seeds each keeps all cores busy
// while never spawning more goroutines than the pool allows. Results are
// indexed like Scenarios and are bit-identical for any parallelism level.
type Campaign struct {
	Scenarios []Scenario
	// Parallel caps concurrently executing runs. 0 selects the shared
	// GOMAXPROCS-sized pool; 1 forces serial execution.
	Parallel int
	// Progress, when non-nil, is called after each completed (scenario ×
	// seed) run with the number of finished runs and the total. Calls are
	// serialized. The extra trace pass of a scenario that sets TraceJSONL
	// is not a run of the campaign and is not counted.
	Progress func(done, total int)
}

// RunBatch executes every scenario of a campaign and returns seed-averaged
// results in scenario order. Scenarios that set TraceJSONL must each use
// their own writer: traced runs execute concurrently.
func RunBatch(c Campaign) ([]*Result, error) {
	// One cell per scenario: all of a scenario's seeds share one world.
	plan, cfgs, err := c.plan(false)
	if plan == nil {
		return nil, err
	}
	res, err := plan.Run(c.pool(), c.Progress)
	if err != nil {
		return nil, err
	}
	return c.fold(cfgs, res)
}

// pool returns the pool Parallel selects.
func (c Campaign) pool() *pool.Pool {
	if c.Parallel > 0 {
		return pool.New(c.Parallel)
	}
	return pool.Shared()
}

// scenarioErr names the failing scenario; single-scenario campaigns
// (ripple.Run) keep their errors unprefixed.
func (c Campaign) scenarioErr(i int, err error) error {
	if len(c.Scenarios) == 1 {
		return err
	}
	return fmt.Errorf("scenario %d: %w", i, err)
}

// seedList returns the seeds the scenario runs under (default: seed 1).
func (s Scenario) seedList() []uint64 {
	if len(s.Seeds) == 0 {
		return []uint64{1}
	}
	return s.Seeds
}

// plan resolves every scenario and compiles the campaign into the one
// thing that executes: a campaign.Plan, scenario-major. With perSeed each
// (scenario, seed) is a cell of its own — the distributed lease unit —
// otherwise each scenario is one cell. An empty campaign has no plan.
func (c Campaign) plan(perSeed bool) (*campaign.Plan, []*network.Config, error) {
	if len(c.Scenarios) == 0 {
		return nil, nil, nil
	}
	cfgs := make([]*network.Config, len(c.Scenarios))
	var cells []campaign.CellSpec
	for i, s := range c.Scenarios {
		cfg, err := s.toConfig()
		if err != nil {
			return nil, nil, c.scenarioErr(i, err)
		}
		cfgs[i] = cfg
		cell := campaign.CellSpec{Label: fmt.Sprintf("scenario %d", i), Config: *cfg, Seeds: s.seedList()}
		if !perSeed {
			cells = append(cells, cell)
			continue
		}
		for j := range cell.Seeds {
			one := cell
			one.Seeds = cell.Seeds[j : j+1]
			cells = append(cells, one)
		}
	}
	plan, err := campaign.NewPlan("batch", cells)
	return plan, cfgs, err
}

// fold turns a completed plan (either cell layout: its per-seed results
// are scenario-major, seed-minor in both) into the public per-scenario
// Results, after running the trace passes. The recorder hook is not
// synchronised, so a scenario that sets TraceJSONL traces a dedicated
// extra run of its first seed, in this process, that contributes nothing
// but the trace and the airtime accounting.
func (c Campaign) fold(cfgs []*network.Config, res *campaign.Result) ([]*Result, error) {
	recs := make([]*trace.Recorder, len(c.Scenarios))
	err := c.pool().Do(len(c.Scenarios), func(i int) error {
		s := c.Scenarios[i]
		if s.TraceJSONL == nil {
			return nil
		}
		recs[i] = &trace.Recorder{W: s.TraceJSONL}
		cfg := *cfgs[i]
		cfg.Seed = s.seedList()[0]
		cfg.Trace = recs[i].Hook()
		if _, err := network.Run(cfg); err != nil {
			return c.scenarioErr(i, err)
		}
		if err := recs[i].Err(); err != nil {
			return c.scenarioErr(i, fmt.Errorf("ripple: trace write: %w", err))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var perSeed []*network.Result
	for _, cell := range res.Cells {
		perSeed = append(perSeed, cell.Seeds...)
	}
	out := make([]*Result, len(c.Scenarios))
	for i, s := range c.Scenarios {
		n := len(s.seedList())
		out[i] = foldResult(perSeed[:n], recs[i])
		perSeed = perSeed[n:]
	}
	return out, nil
}

// foldResult summarises one scenario's per-seed results (seed order, so
// the fold is deterministic) into the public Result: every metric streams
// through a Welford accumulator, so each carries its seed mean, 95%
// confidence half-width, min, max and sample count.
func foldResult(results []*network.Result, rec *trace.Recorder) *Result {
	out := &Result{
		Total:       foldMetric(results, func(r *network.Result) float64 { return r.TotalMbps }),
		Fairness:    foldMetric(results, func(r *network.Result) float64 { return r.Fairness }),
		Events:      foldMetric(results, func(r *network.Result) float64 { return float64(r.Events) }),
		RouteStale:  foldMetric(results, func(r *network.Result) float64 { return float64(r.RouteStale) }),
		Unreachable: foldMetric(results, func(r *network.Result) float64 { return float64(r.Unreachable) }),
	}
	if rec != nil {
		out.BusyFraction = rec.BusyFraction(results[0].Duration)
		out.AirtimePerNode = make(map[NodeID]Time)
		for id, t := range rec.Airtime() {
			out.AirtimePerNode[int(id)] = t
		}
	}
	for i, f := range results[0].Flows {
		out.Flows = append(out.Flows, FlowResult{
			ID:          f.ID,
			Throughput:  foldMetric(results, func(r *network.Result) float64 { return r.Flows[i].ThroughputMbps }),
			Delay:       foldMetric(results, func(r *network.Result) float64 { return r.Flows[i].MeanDelay.Milliseconds() }),
			Reorder:     foldMetric(results, func(r *network.Result) float64 { return r.Flows[i].ReorderRate }),
			Delivered:   foldMetric(results, func(r *network.Result) float64 { return float64(r.Flows[i].PktsDelivered) }),
			Transfers:   foldMetric(results, func(r *network.Result) float64 { return float64(r.Flows[i].Transfers) }),
			MoS:         foldMetric(results, func(r *network.Result) float64 { return r.Flows[i].MoS }),
			Loss:        foldMetric(results, func(r *network.Result) float64 { return r.Flows[i].LossRate }),
			Unreachable: foldMetric(results, func(r *network.Result) float64 { return float64(r.Flows[i].Unreachable) }),
		})
	}
	return out
}
