package campaign

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ripple/internal/campaign/pool"
	"ripple/internal/network"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

// lineGrid sweeps scheme × hops on line topologies: a small but real
// two-axis grid.
func lineGrid(p *pool.Pool, seeds []uint64) Grid {
	schemes := []network.SchemeKind{network.DCF, network.Ripple}
	hops := []int{2, 3}
	return Grid{
		Name: "test-line",
		Axes: []Axis{
			A("scheme", "DCF", "RIPPLE"),
			A("hops", "2", "3"),
		},
		Seeds: seeds,
		Pool:  p,
		Build: func(pt Point) (network.Config, error) {
			top, path := topology.Line(hops[pt.Index("hops")])
			return network.Config{
				Positions: top.Positions,
				Scheme:    schemes[pt.Index("scheme")],
				Flows:     []network.FlowSpec{{ID: 1, Path: path, Kind: network.FTP}},
				Duration:  300 * sim.Millisecond,
			}, nil
		},
	}
}

func TestGridExpandsAndRuns(t *testing.T) {
	g := lineGrid(pool.New(4), []uint64{1, 2, 3})
	res, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(res.Cells))
	}
	for _, c := range res.Cells {
		if len(c.Seeds) != 3 {
			t.Fatalf("%s: %d seed results", c.Point, len(c.Seeds))
		}
		if c.Mean == nil || c.Mean.TotalMbps <= 0 {
			t.Fatalf("%s: empty mean result", c.Point)
		}
		s := c.Stat(func(r *network.Result) float64 { return r.TotalMbps })
		// Welford's running mean and Average's sum/n agree to rounding.
		if s.N != 3 || math.Abs(s.Mean-c.Mean.TotalMbps) > 1e-9 {
			t.Fatalf("%s: Stat = %+v vs mean %v", c.Point, s, c.Mean.TotalMbps)
		}
		if s.CI95 < 0 {
			t.Fatalf("%s: negative CI", c.Point)
		}
	}
	// Cell addressing matches point labels.
	c := res.Cell(1, 0)
	if c.Point.Label("scheme") != "RIPPLE" || c.Point.Label("hops") != "2" {
		t.Fatalf("Cell(1,0) = %s", c.Point)
	}
	if c.Point.Index("scheme") != 1 {
		t.Fatalf("Index(scheme) = %d", c.Point.Index("scheme"))
	}
	if got := c.Point.String(); got != "scheme=RIPPLE/hops=2" {
		t.Fatalf("Point.String() = %q", got)
	}
}

// TestGridDeterministicAcrossWorkerCounts is the campaign determinism
// guarantee: identical grid + seeds produce bit-identical results whether
// the pool has one worker or many.
func TestGridDeterministicAcrossWorkerCounts(t *testing.T) {
	serialGrid := lineGrid(pool.New(1), []uint64{1, 2, 3})
	serial, err := serialGrid.Run()
	if err != nil {
		t.Fatal(err)
	}
	wideGrid := lineGrid(pool.New(8), []uint64{1, 2, 3})
	wide, err := wideGrid.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Cells {
		a, b := serial.Cells[i], wide.Cells[i]
		if !reflect.DeepEqual(a.Mean, b.Mean) {
			t.Errorf("%s: means diverge across worker counts:\n%+v\nvs\n%+v",
				a.Point, a.Mean, b.Mean)
		}
		for s := range a.Seeds {
			if a.Seeds[s].TotalMbps != b.Seeds[s].TotalMbps ||
				a.Seeds[s].Events != b.Seeds[s].Events {
				t.Errorf("%s seed %d: per-seed results diverge", a.Point, s)
			}
		}
		sa := a.Stat(func(r *network.Result) float64 { return r.TotalMbps })
		sb := b.Stat(func(r *network.Result) float64 { return r.TotalMbps })
		if sa != sb {
			t.Errorf("%s: summaries diverge: %+v vs %+v", a.Point, sa, sb)
		}
	}
}

func TestGridProgressCountsEveryUnit(t *testing.T) {
	g := lineGrid(pool.New(4), []uint64{1, 2})
	var calls []int
	g.Progress = func(done, total int) {
		if total != 8 {
			t.Errorf("total = %d, want 8", total)
		}
		calls = append(calls, done)
	}
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 8 {
		t.Fatalf("progress calls = %d, want 8", len(calls))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress sequence %v not monotonic", calls)
		}
	}
}

func TestGridNoAxesIsOneCell(t *testing.T) {
	top, path := topology.Line(2)
	g := Grid{
		Name: "single",
		Pool: pool.New(2),
		Build: func(Point) (network.Config, error) {
			return network.Config{
				Positions: top.Positions,
				Scheme:    network.Ripple,
				Flows:     []network.FlowSpec{{ID: 1, Path: path, Kind: network.FTP}},
				Duration:  200 * sim.Millisecond,
			}, nil
		},
	}
	res, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 || len(res.Cells[0].Seeds) != 1 {
		t.Fatalf("cells/seeds = %d/%d", len(res.Cells), len(res.Cells[0].Seeds))
	}
}

func TestGridBuildErrorAbortsBeforeRunning(t *testing.T) {
	ran := false
	g := Grid{
		Name: "broken",
		Axes: []Axis{A("x", "a", "b")},
		Pool: pool.New(2),
		Build: func(pt Point) (network.Config, error) {
			if pt.Index("x") == 1 {
				return network.Config{}, errors.New("boom")
			}
			ran = true // Build for cell 0 still runs, but no simulation may
			top, path := topology.Line(2)
			return network.Config{
				Positions: top.Positions,
				Scheme:    network.DCF,
				Flows:     []network.FlowSpec{{ID: 1, Path: path, Kind: network.FTP}},
			}, nil
		},
	}
	_, err := g.Run()
	if err == nil {
		t.Fatal("broken Build must fail the grid")
	}
	if want := `campaign broken [x=b]: boom`; err.Error() != want {
		t.Fatalf("err = %q, want %q", err.Error(), want)
	}
	_ = ran
}

func TestGridValidation(t *testing.T) {
	g := Grid{Name: "g", Axes: []Axis{A("empty")}}
	g.Build = func(Point) (network.Config, error) { return network.Config{}, nil }
	if _, err := g.Run(); err == nil {
		t.Error("empty axis must error")
	}
	g2 := Grid{Name: "g2"}
	if _, err := g2.Run(); err == nil {
		t.Error("missing Build must error")
	}
}

func TestGridRunErrorNamesPointAndSeed(t *testing.T) {
	g := Grid{
		Name:  "badrun",
		Axes:  []Axis{A("n", "0", "1")},
		Seeds: []uint64{7},
		Pool:  pool.New(2),
		Build: func(pt Point) (network.Config, error) {
			// The cell brings a World built for one station more, which
			// passes the plan's world stage and makes network.Run fail
			// once the unit executes.
			top, path := topology.Line(2)
			longer, _ := topology.Line(3)
			cfg := network.Config{
				Positions: longer.Positions,
				Scheme:    network.DCF,
				Flows:     []network.FlowSpec{{ID: 1, Path: path, Kind: network.FTP}},
			}
			w, err := network.BuildWorld(cfg)
			cfg.Positions, cfg.World = top.Positions, w
			return cfg, err
		},
	}
	_, err := g.Run()
	if err == nil {
		t.Fatal("invalid scenario must fail the run")
	}
	for _, want := range []string{"campaign badrun", "seed 7"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err %q missing %q", err, want)
		}
	}
}

func TestGridInvalidConfigFailsAtPlan(t *testing.T) {
	runs := 0
	g := Grid{
		Name:  "badcfg",
		Axes:  []Axis{A("n", "0", "1")},
		Seeds: []uint64{7},
		Pool:  pool.New(2),
		Build: func(pt Point) (network.Config, error) {
			runs++
			// No stations: network.Validate refuses the cell when the
			// grid is planned, before any world is built or run scheduled.
			return network.Config{}, nil
		},
	}
	_, err := g.Run()
	if err == nil {
		t.Fatal("invalid scenario must fail the grid")
	}
	for _, want := range []string{"campaign badcfg", "[n=0]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err %q missing %q", err, want)
		}
	}
	// Build runs in cell order and the plan stops at the first broken
	// cell: cell 1 is never built.
	if runs != 1 {
		t.Errorf("Build called %d times, want once, for the first cell", runs)
	}
}

func TestPointPanicsOnUnknownAxis(t *testing.T) {
	g := lineGrid(pool.New(1), []uint64{1})
	pt := g.point(0)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown axis must panic")
		}
	}()
	pt.Index("nope")
}

// TestGridCellOrderRowMajor pins the documented cell layout.
func TestGridCellOrderRowMajor(t *testing.T) {
	g := Grid{
		Name: "order",
		Axes: []Axis{A("a", "0", "1"), A("b", "0", "1", "2")},
	}
	var got []string
	for flat := 0; flat < 6; flat++ {
		pt := g.point(flat)
		got = append(got, strconv.Itoa(pt.Index("a"))+strconv.Itoa(pt.Index("b")))
	}
	want := []string{"00", "01", "02", "10", "11", "12"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cell order = %v, want %v", got, want)
	}
}
