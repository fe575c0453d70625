package ripple

import (
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ripple/internal/campaign"
	"ripple/internal/dist"
	"ripple/internal/network"
	"ripple/internal/stats"
)

// TestGridRunCellAndRunBatchAgree: the same configs give the same per-seed
// results whichever door they come in by — a declared Grid, its Plan's
// cells run one at a time and reassembled, or the public batch API.
func TestGridRunCellAndRunBatchAgree(t *testing.T) {
	scenarios := []Scenario{
		batchScenario(SchemeDCF, 1, 2),
		batchScenario(SchemeRIPPLE, 1, 2),
		batchScenario(SchemeMCExOR, 1, 2),
	}
	g := campaign.Grid{
		Name:  "doors",
		Axes:  []campaign.Axis{campaign.A("scenario", "0", "1", "2")},
		Seeds: []uint64{1, 2},
		Build: func(pt campaign.Point) (network.Config, error) {
			cfg, err := scenarios[pt.Index("scenario")].toConfig()
			if err != nil {
				return network.Config{}, err
			}
			return *cfg, nil
		},
	}
	want, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	perCell := make([][]*network.Result, plan.NumCells())
	for c := plan.NumCells() - 1; c >= 0; c-- {
		if perCell[c], err = plan.RunCell(c, nil); err != nil {
			t.Fatal(err)
		}
	}
	assembled, err := plan.Assemble(perCell)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(assembled, want) {
		t.Error("RunCell + Assemble differs from Grid.Run")
	}
	batch, err := RunBatch(Campaign{Scenarios: scenarios})
	if err != nil {
		t.Fatal(err)
	}
	for i := range scenarios {
		if !reflect.DeepEqual(batch[i], foldResult(want.Cells[i].Seeds, nil)) {
			t.Errorf("scenario %d: RunBatch differs from the fold of Grid.Run's per-seed results", i)
		}
	}
}

// TestRunBatchBuildsWorldOncePerScenario: a scenario's seeds share one
// world snapshot through the public API. On a 1000-station city under the
// default radio the world (37 MB of link tables) dwarfs a 20 ms run, so
// four seeds must allocate well under twice what one seed does (1.15×
// measured; ≈ 4× when every seed rebuilt the world).
func TestRunBatchBuildsWorldOncePerScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 1000-station world five times")
	}
	city, err := NewNet(CityTopology(1000, 7), DefaultRadio())
	if err != nil {
		t.Fatal(err)
	}
	sc := city.Scenario(SchemeRIPPLE, city.FlowTo(0, 40, CBR{Interval: Millisecond}))
	sc.Duration = 20 * Millisecond
	allocated := func(seeds ...uint64) uint64 {
		sc.Seeds = seeds
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunBatch(Campaign{Scenarios: []Scenario{sc}, Parallel: 1}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	one, four := allocated(1), allocated(1, 2, 3, 4)
	t.Logf("TotalAlloc: 1 seed %d B, 4 seeds %d B (%.2fx)", one, four, float64(four)/float64(one))
	if float64(four) >= 1.6*float64(one) {
		t.Errorf("4 seeds allocated %d B, 1 seed %d B: the world is not shared", four, one)
	}
}

// rendezvousCells makes the first cell each of two workers runs wait for
// the other's, so a test can assert that both were given work without
// depending on how fast either is.
type rendezvousCells struct {
	dist.CellSet
	ran   *atomic.Int32 // cells this worker ran
	meet  *sync.WaitGroup
	first sync.Once
}

func (r *rendezvousCells) RunCell(c int) (any, map[string]stats.State, error) {
	r.ran.Add(1)
	r.first.Do(func() {
		r.meet.Done()
		met := make(chan struct{})
		go func() { r.meet.Wait(); close(met) }()
		select {
		case <-met:
		case <-time.After(10 * time.Second): // the assertion below reports it
		}
	})
	return r.CellSet.RunCell(c)
}

// TestDistributePlanSpreadsOneScenarioOverWorkers: Distribute's plan has
// one cell per (scenario, seed), so a single eight-seed scenario is eight
// leases and both of two workers deliver some of them. The workers are
// in-process here (same plan, coordinator, protocol and fold as
// Distribute, over pipes) because which spawned process delivered a cell
// is not observable from outside.
func TestDistributePlanSpreadsOneScenarioOverWorkers(t *testing.T) {
	c := Campaign{Scenarios: []Scenario{batchScenario(SchemeRIPPLE, 1, 2, 3, 4, 5, 6, 7, 8)}}
	want, err := RunBatch(c)
	if err != nil {
		t.Fatal(err)
	}
	plan, cfgs, err := c.plan(true)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumCells() != 8 {
		t.Fatalf("distributed plan has %d cells, want one per seed", plan.NumCells())
	}
	coord := dist.NewCoordinator(dist.Options{})
	var meet sync.WaitGroup
	meet.Add(2)
	var ran [2]atomic.Int32
	errs := make(chan error, 2)
	for i := range ran {
		cli, srv := net.Pipe()
		go coord.Serve(dist.NewConn(srv))
		go func() {
			defer cli.Close()
			w, err := dist.NewWorker(cli, "w")
			if err == nil {
				err = w.ServeGrid(&rendezvousCells{CellSet: dist.GridCells{Plan: plan}, ran: &ran[i], meet: &meet})
			}
			errs <- err
		}()
	}
	res, err := dist.ExecutePlan(coord, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	for range ran {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	coord.Close()
	if a, b := ran[0].Load(), ran[1].Load(); a == 0 || b == 0 || a+b != 8 {
		t.Errorf("workers ran %d and %d cells, want both > 0 and 8 in all", a, b)
	}
	got, err := c.fold(cfgs, res)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("leased result differs from RunBatch")
	}
}
