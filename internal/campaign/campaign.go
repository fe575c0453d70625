// Package campaign is the simulator's batch execution engine. What it
// executes is a Plan: cells of (point, network.Config, seed list). A Grid
// declares one as the axes of a scenario sweep (scheme, topology, flow
// count, BER, radio profile — any labelled dimension) and a Build function
// that maps one grid point to a network.Config; NewPlan takes explicit
// cells, which is how the public batch API arrives. One scheduler runs the
// plan's (cell × seed) units on the shared bounded worker pool — all of
// it, or a range of cells for a distributed worker — and each cell's
// per-seed results fold into a mean plus Welford-accumulated variance so
// every cell can report mean ± 95% CI. The paper's evaluation is exactly
// this shape — every figure averages "multiple runs" over a (scheme ×
// topology × load × channel) grid — and the figure drivers in
// internal/experiments are declared as Grids.
//
// Execution is deterministic: units are indexed by (cell, seed) and
// results are folded in that fixed order, so a plan produces bit-identical
// numbers whether it runs on one worker or many, in one process or several.
package campaign

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"ripple/internal/campaign/pool"
	"ripple/internal/network"
	"ripple/internal/stats"
)

// Axis is one labelled dimension of a grid.
type Axis struct {
	Name   string
	Labels []string
}

// A creates an axis.
func A(name string, labels ...string) Axis { return Axis{Name: name, Labels: labels} }

// Point identifies one cell of a grid: an index along every axis.
type Point struct {
	axes []Axis
	idx  []int
}

// Index returns the point's position along the named axis. Asking for an
// axis the grid does not declare is a programming error and panics.
func (p Point) Index(axis string) int {
	for i, a := range p.axes {
		if a.Name == axis {
			return p.idx[i]
		}
	}
	panic(fmt.Sprintf("campaign: grid has no axis %q", axis))
}

// String renders the point as "axis=label/axis=label".
func (p Point) String() string {
	parts := make([]string, len(p.axes))
	for i, a := range p.axes {
		parts[i] = a.Name + "=" + a.Labels[p.idx[i]]
	}
	return strings.Join(parts, "/")
}

// Grid declares a scenario sweep.
type Grid struct {
	// Name identifies the grid in errors and progress output.
	Name string
	// Axes are the sweep dimensions; their cartesian product is the cell
	// set. A grid with no axes has exactly one cell.
	Axes []Axis
	// Seeds runs every cell once per seed; empty means seed 1 only.
	Seeds []uint64
	// Build maps a grid point to its scenario. It is called once per cell,
	// in cell order, before any unit runs; an error aborts the whole grid.
	Build func(Point) (network.Config, error)
	// Pool schedules the units (nil = the shared GOMAXPROCS-sized pool).
	Pool *pool.Pool
	// Progress, when non-nil, is called after each completed unit with the
	// number of finished units and the total. Calls are serialized.
	Progress func(done, total int)
}

// Cell is one completed grid point.
type Cell struct {
	Point Point
	// Seeds holds the per-seed results in seed order.
	Seeds []*network.Result
	// Mean is the seed-averaged result (network.Average semantics).
	Mean *network.Result
}

// Stat streams the metric over the cell's per-seed results (in seed order,
// so the numbers are deterministic) through a Welford accumulator and
// returns its mean ± 95% CI summary.
func (c *Cell) Stat(metric func(*network.Result) float64) stats.Summary {
	var w stats.Welford
	for _, r := range c.Seeds {
		w.Add(metric(r))
	}
	return w.Summary()
}

// Result is a completed grid: one cell per point, in row-major order with
// the last axis varying fastest.
type Result struct {
	Axes  []Axis
	Cells []Cell
}

// Cell returns the cell at the given per-axis indices.
func (r *Result) Cell(idx ...int) *Cell {
	if len(idx) != len(r.Axes) {
		panic(fmt.Sprintf("campaign: Cell wants %d indices, got %d", len(r.Axes), len(idx)))
	}
	flat := 0
	for i, a := range r.Axes {
		if idx[i] < 0 || idx[i] >= len(a.Labels) {
			panic(fmt.Sprintf("campaign: index %d out of range for axis %q", idx[i], a.Name))
		}
		flat = flat*len(a.Labels) + idx[i]
	}
	return &r.Cells[flat]
}

// Plan is the unit of execution: cells of (point, scenario config, seed
// list), validated and in cell order, with no worlds constructed yet. A
// Grid expands into one with Plan (every cell under the grid's seeds);
// NewPlan builds one from explicit cells, each with its own seed list. A
// Plan is immutable, so cells may run concurrently, in any order, in any
// process: the distributed layer (internal/dist) has a coordinator and its
// workers each build the same Plan, identified by Fingerprint, run cells
// with RunCell and reassemble them with Assemble.
type Plan struct {
	name   string
	axes   []Axis
	points []Point
	cfgs   []network.Config
	seeds  [][]uint64
}

// Plan validates the grid and expands it into its cell set. Build is
// called once per cell, in cell order, and each cell's config must pass
// network.Validate, so the first bad cell fails the plan — on a
// coordinator and on each worker alike — before any simulation runs.
func (g *Grid) Plan() (*Plan, error) {
	for _, a := range g.Axes {
		if len(a.Labels) == 0 {
			return nil, fmt.Errorf("campaign %s: axis %q has no values", g.Name, a.Name)
		}
	}
	if g.Build == nil {
		return nil, fmt.Errorf("campaign %s: no Build function", g.Name)
	}
	cells := 1
	for _, a := range g.Axes {
		cells *= len(a.Labels)
	}
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	p := &Plan{name: g.Name, axes: g.Axes, points: make([]Point, cells),
		cfgs: make([]network.Config, cells), seeds: make([][]uint64, cells)}
	for c := 0; c < cells; c++ {
		p.points[c] = g.point(c)
		cfg, err := g.Build(p.points[c])
		if err == nil {
			err = network.Validate(&cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("campaign %s [%s]: %w", g.Name, p.points[c], err)
		}
		p.cfgs[c] = cfg
		p.seeds[c] = seeds
	}
	return p, nil
}

// CellSpec is one cell of a plan built with NewPlan.
type CellSpec struct {
	// Label names the cell in errors and in its Point.
	Label  string
	Config network.Config
	// Seeds runs the cell once per seed; at least one is required.
	Seeds []uint64
}

// NewPlan builds a plan from explicit cells (at least one) along a single
// "cell" axis; each cell's config must pass network.Validate.
func NewPlan(name string, cells []CellSpec) (*Plan, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("campaign %s: no cells", name)
	}
	axis := Axis{Name: "cell", Labels: make([]string, len(cells))}
	p := &Plan{name: name, axes: []Axis{axis}, points: make([]Point, len(cells)),
		cfgs: make([]network.Config, len(cells)), seeds: make([][]uint64, len(cells))}
	for c, cell := range cells {
		if len(cell.Seeds) == 0 {
			return nil, fmt.Errorf("campaign %s [%s]: no seeds", name, cell.Label)
		}
		axis.Labels[c] = cell.Label
		p.points[c] = Point{axes: p.axes, idx: []int{c}}
		p.cfgs[c] = cell.Config
		p.seeds[c] = cell.Seeds
	}
	// The plan's shape first, then each cell's config.
	for _, cell := range cells {
		if err := network.Validate(&cell.Config); err != nil {
			return nil, fmt.Errorf("campaign %s [%s]: %w", name, cell.Label, err)
		}
	}
	return p, nil
}

// NumCells returns the number of cells in the plan.
func (p *Plan) NumCells() int { return len(p.cfgs) }

// Seeds returns the seed list of one cell.
func (p *Plan) Seeds(c int) []uint64 { return p.seeds[c] }

// Fingerprint identifies the plan across processes and across a
// checkpoint's lifetime: a coordinator only accepts cell results from
// workers — and only restores cells from a checkpoint — whose plan hashes
// identically. The hash covers the name, the axes, and for every cell its
// seed list and its whole scenario config in canonical (JSON) form, minus
// what is not part of the scenario: Seed (the seed list stands for it),
// World and Trace. Build functions cannot be hashed at all, but whatever
// they compute is in the configs.
func (p *Plan) Fingerprint() string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	fmt.Fprintf(h, "plan %q\n", p.name)
	for _, a := range p.axes {
		fmt.Fprintf(h, "axis %q %q\n", a.Name, a.Labels)
	}
	for c, cfg := range p.cfgs {
		fmt.Fprintf(h, "cell %d seeds %v\n", c, p.seeds[c])
		cfg.Seed, cfg.World, cfg.Trace = 0, nil, nil
		if err := enc.Encode(&cfg); err != nil {
			// Only a NaN or infinite parameter is unencodable; both sides
			// of a campaign then hash the same error text.
			fmt.Fprintf(h, "unencodable: %v\n", err)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// run is the one scheduler every campaign goes through. It executes cells
// [lo, hi) on the pool (nil = the shared pool) and returns their per-seed
// results, cell-indexed from lo, seed order within each cell.
//
// Each cell gets its seed-independent world snapshot (radio link plan,
// routing table, resolved routes) built exactly once: the cell's seed-runs
// share it read-only, so the O(N²) setup cost is paid per cell, not per
// run. The builds themselves fan out across the pool — for single-seed
// grids over large topologies they are the dominant setup cost — and
// pool.Do reports the lowest-indexed failure, so a broken cell still
// surfaces deterministically before any run. The flat (cell × seed) units
// then share the pool, so a plan with few cells and many seeds, or many
// cells and one seed, keeps every worker busy alike.
func (p *Plan) run(lo, hi int, pl *pool.Pool, progress func(done, total int)) ([][]*network.Result, error) {
	if pl == nil {
		pl = pool.Shared()
	}
	n := hi - lo
	worlds := make([]*network.World, n)
	if err := pl.Do(n, func(i int) error {
		w := p.cfgs[lo+i].World // a config may bring its own snapshot
		if w == nil {
			var err error
			if w, err = network.BuildWorld(p.cfgs[lo+i]); err != nil {
				return fmt.Errorf("campaign %s [%s]: %w", p.name, p.points[lo+i], err)
			}
		}
		worlds[i] = w
		return nil
	}); err != nil {
		return nil, err
	}
	type unit struct{ cell, seed int }
	var units []unit
	results := make([][]*network.Result, n)
	// remaining counts each cell's unfinished seed-runs so the last
	// finisher can drop the cell's world: without this a wide plan would
	// pin O(cells × N²) of link-plan matrices until run returns, where each
	// snapshot is only needed while its cell's seeds execute. Every unit
	// reads worlds[cell] before running and decrements after, so the atomic
	// counter orders the nil store strictly after every sibling's read.
	remaining := make([]atomic.Int32, n)
	for i := range results {
		seeds := p.seeds[lo+i]
		results[i] = make([]*network.Result, len(seeds))
		remaining[i].Store(int32(len(seeds)))
		for s := range seeds {
			units = append(units, unit{i, s})
		}
	}
	var done int
	var progressMu sync.Mutex
	err := pl.Do(len(units), func(u int) error {
		i, s := units[u].cell, units[u].seed
		cfg := p.cfgs[lo+i]
		cfg.World = worlds[i]
		cfg.Seed = p.seeds[lo+i][s]
		res, err := network.Run(cfg)
		if err != nil {
			return fmt.Errorf("campaign %s [%s] seed %d: %w", p.name, p.points[lo+i], cfg.Seed, err)
		}
		results[i][s] = res
		if remaining[i].Add(-1) == 0 {
			worlds[i] = nil
		}
		if progress != nil {
			progressMu.Lock()
			done++
			progress(done, len(units))
			progressMu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Run executes every cell and folds the results. progress, when non-nil,
// is called after each completed run with the number of finished runs and
// the total; calls are serialized.
func (p *Plan) Run(pl *pool.Pool, progress func(done, total int)) (*Result, error) {
	perCell, err := p.run(0, len(p.cfgs), pl, progress)
	if err != nil {
		return nil, err
	}
	return p.Assemble(perCell)
}

// RunCell executes one cell and returns its results in seed order,
// bit-identical to the same cell of a full Run.
func (p *Plan) RunCell(c int, pl *pool.Pool) ([]*network.Result, error) {
	if c < 0 || c >= len(p.cfgs) {
		return nil, fmt.Errorf("campaign %s: cell %d out of range [0,%d)", p.name, c, len(p.cfgs))
	}
	perCell, err := p.run(c, c+1, pl, nil)
	if err != nil {
		return nil, err
	}
	return perCell[0], nil
}

// Assemble folds per-cell seed results (cell-indexed, seed order within
// each cell) into the Result. The fold is the one Run performs, so a
// Result assembled from cells executed elsewhere — other processes, other
// machines, a resumed checkpoint — is identical to an uninterrupted
// in-process Run.
func (p *Plan) Assemble(perCell [][]*network.Result) (*Result, error) {
	if len(perCell) != len(p.cfgs) {
		return nil, fmt.Errorf("campaign %s: assembling %d cells, plan has %d", p.name, len(perCell), len(p.cfgs))
	}
	out := &Result{Axes: p.axes, Cells: make([]Cell, len(p.cfgs))}
	for c, seeds := range perCell {
		if len(seeds) != len(p.seeds[c]) {
			return nil, fmt.Errorf("campaign %s: cell %d has %d seed results, plan wants %d", p.name, c, len(seeds), len(p.seeds[c]))
		}
		out.Cells[c] = Cell{Point: p.points[c], Seeds: seeds, Mean: network.Average(seeds)}
	}
	return out, nil
}

// Run expands the grid and executes every (cell × seed) unit on the pool.
func (g *Grid) Run() (*Result, error) {
	plan, err := g.Plan()
	if err != nil {
		return nil, err
	}
	return plan.Run(g.Pool, g.Progress)
}

// point converts a flat cell index into per-axis indices (last axis
// fastest).
func (g *Grid) point(flat int) Point {
	idx := make([]int, len(g.Axes))
	for i := len(g.Axes) - 1; i >= 0; i-- {
		n := len(g.Axes[i].Labels)
		idx[i] = flat % n
		flat /= n
	}
	return Point{axes: g.Axes, idx: idx}
}
