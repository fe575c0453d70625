package campaign

import (
	"reflect"
	"strings"
	"testing"

	"ripple/internal/campaign/pool"
	"ripple/internal/network"
	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/sim"
	"ripple/internal/topology"
	"ripple/internal/transport"
)

// TestPlanRunCellAssembleEqualsRun is the sharding correctness bar: cells
// executed one at a time through the Plan API — out of order, as
// distributed workers would — and reassembled must produce exactly the
// Result an uninterrupted Run produces: same per-seed results, same
// means, same order. This is the in-process model of a distributed
// campaign.
func TestPlanRunCellAssembleEqualsRun(t *testing.T) {
	g := lineGrid(pool.New(2), []uint64{1, 2})
	want, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}

	plan, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumCells() != len(want.Cells) {
		t.Fatalf("NumCells = %d, want %d", plan.NumCells(), len(want.Cells))
	}
	perCell := make([][]*network.Result, plan.NumCells())
	for _, c := range []int{3, 0, 2, 1} {
		seeds, err := plan.RunCell(c, pool.New(2))
		if err != nil {
			t.Fatal(err)
		}
		perCell[c] = seeds
	}
	got, err := plan.Assemble(perCell)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("assembled result differs from Run:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestPlanAssembleValidates(t *testing.T) {
	g := lineGrid(pool.New(1), []uint64{1})
	plan, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Assemble(make([][]*network.Result, 1)); err == nil ||
		!strings.Contains(err.Error(), "assembling 1 cells") {
		t.Fatalf("short cell slice: err = %v", err)
	}
	bad := make([][]*network.Result, plan.NumCells())
	if _, err := plan.Assemble(bad); err == nil ||
		!strings.Contains(err.Error(), "seed results") {
		t.Fatalf("missing seeds: err = %v", err)
	}
	if _, err := plan.RunCell(plan.NumCells(), nil); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range cell: err = %v", err)
	}
}

// TestPlanFingerprint pins the fingerprint's role: stable across
// re-expansions of the same declaration, different for grids that differ
// in their shape (name, axes, seeds, duration) or in any parameter of any
// cell's scenario — a checkpoint or a worker from a campaign run under
// other flags must not match.
func TestPlanFingerprint(t *testing.T) {
	mk := func(mutate func(*Grid)) string {
		g := lineGrid(nil, []uint64{1, 2})
		if mutate != nil {
			mutate(&g)
		}
		p, err := g.Plan()
		if err != nil {
			t.Fatal(err)
		}
		return p.Fingerprint()
	}
	// tweak changes one parameter of the last cell's scenario only.
	tweak := func(f func(*network.Config)) func(*Grid) {
		return func(g *Grid) {
			build := g.Build
			g.Build = func(pt Point) (network.Config, error) {
				cfg, err := build(pt)
				if pt.Index("scheme") == 1 && pt.Index("hops") == 1 {
					f(&cfg)
				}
				return cfg, err
			}
		}
	}
	base := mk(nil)
	if again := mk(nil); again != base {
		t.Fatalf("fingerprint unstable: %s vs %s", base, again)
	}
	for name, mutate := range map[string]func(*Grid){
		"name":     func(g *Grid) { g.Name = "other" },
		"seeds":    func(g *Grid) { g.Seeds = []uint64{1, 2, 3} },
		"duration": tweak(func(cfg *network.Config) { cfg.Duration = 400 * sim.Millisecond }),
		"axes":     func(g *Grid) { g.Axes[1] = A("hops", "2") },
		"BER": tweak(func(cfg *network.Config) {
			cfg.Radio = radio.DefaultConfig()
			cfg.Radio.BitErrorRate = 1e-5
		}),
		"prune sigma": tweak(func(cfg *network.Config) {
			cfg.Radio = radio.DefaultConfig()
			cfg.Radio.PruneSigma = 0
		}),
		"traffic kind": tweak(func(cfg *network.Config) { cfg.Flows[0].Kind = network.Web }),
		"a flow's TCP": tweak(func(cfg *network.Config) {
			tcp := transport.DefaultTCPConfig()
			tcp.MaxCwnd = 8
			cfg.Flows[0].TCP = &tcp
		}),
		"fault seed": tweak(func(cfg *network.Config) { cfg.Faults.Seed = 9 }),
	} {
		if mk(mutate) == base {
			t.Errorf("fingerprint ignores %s", name)
		}
	}
}

// TestPlanFingerprintIgnoresSeedWorldTrace: what is not part of the
// scenario — the run seed the seed list overrides, a prebuilt world, a
// trace hook — does not enter the fingerprint, so a coordinator and a
// worker that differ only there still agree.
func TestPlanFingerprintIgnoresSeedWorldTrace(t *testing.T) {
	top, path := topology.Line(2)
	cfg := network.Config{
		Positions: top.Positions,
		Scheme:    network.DCF,
		Flows:     []network.FlowSpec{{ID: 1, Path: path, Kind: network.FTP}},
	}
	fp := func(cfg network.Config) string {
		p, err := NewPlan("p", []CellSpec{{Label: "a", Config: cfg, Seeds: []uint64{1}}})
		if err != nil {
			t.Fatal(err)
		}
		return p.Fingerprint()
	}
	base := fp(cfg)
	w, err := network.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed, cfg.World = 7, w
	cfg.Trace = func(sim.Time, string, pkt.NodeID, *pkt.Frame) {}
	if got := fp(cfg); got != base {
		t.Errorf("fingerprint depends on Seed, World or Trace: %s vs %s", got, base)
	}
}

// TestNewPlan: explicit cells, each with its own seed list, run like a
// grid's cells under the same seeds.
func TestNewPlan(t *testing.T) {
	g := lineGrid(pool.New(2), []uint64{1, 2})
	gp, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	want, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	seedLists := [][]uint64{{1, 2}, {2}, {1, 2}, {1}}
	var cells []CellSpec
	for c := range seedLists {
		cells = append(cells, CellSpec{Label: gp.points[c].String(), Config: gp.cfgs[c], Seeds: seedLists[c]})
	}
	p, err := NewPlan("explicit", cells)
	if err != nil {
		t.Fatal(err)
	}
	var dones []int
	got, err := p.Run(pool.New(1), func(done, total int) {
		if total != 6 {
			t.Errorf("progress total = %d, want 6", total)
		}
		dones = append(dones, done)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dones, []int{1, 2, 3, 4, 5, 6}) {
		t.Errorf("progress = %v", dones)
	}
	for c, seeds := range seedLists {
		if len(got.Cells[c].Seeds) != len(seeds) {
			t.Fatalf("cell %d: %d results, want %d", c, len(got.Cells[c].Seeds), len(seeds))
		}
		for s, seed := range seeds {
			if !reflect.DeepEqual(got.Cells[c].Seeds[s], want.Cells[c].Seeds[seed-1]) {
				t.Errorf("cell %d seed %d differs from the grid's run", c, seed)
			}
		}
	}
	if got := got.Cells[1].Point.String(); got != "cell=scheme=DCF/hops=3" {
		t.Errorf("point = %q", got)
	}
}

// TestNewPlanRequiresSeeds: a cell without seeds is rejected — there is
// no default to fall back to, unlike Grid.Seeds — and so is a plan
// without cells.
func TestNewPlanRequiresSeeds(t *testing.T) {
	cells := []CellSpec{{Label: "a", Seeds: []uint64{1}}, {Label: "b"}}
	if _, err := NewPlan("explicit", cells); err == nil || !strings.Contains(err.Error(), "[b]: no seeds") {
		t.Errorf("cell without seeds: err = %v", err)
	}
	if _, err := NewPlan("explicit", nil); err == nil {
		t.Error("plan without cells accepted")
	}
}
