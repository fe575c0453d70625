package radio

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ripple/internal/sim"
)

// sameBits reports whether two floats are the same value bit for bit.
func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// transmitRow is station i's transmit row and its delay order (nil when the
// row is in delay order), as a Medium derives them.
func transmitRow(pl *LinkPlan, i int) ([]link, []int32) { return pl.appendRow(nil, nil, i) }

// TestPlanAttributesArePositionFunctions: every attribute a plan hands out
// or derives for a link is a function of the two stations' positions and
// the radio config alone — the distance is Dist(pos a, pos b), the mean
// power MeanRxPowerDBm of it and the delay propDelay of it, bit for bit —
// and the pair accessors are symmetric. It covers a pruned city, three patched
// epochs of a mobile one and a dense Fig. 1-size plan. It is what lets a plan
// recompute a link's distance instead of storing it.
func TestPlanAttributesArePositionFunctions(t *testing.T) {
	dense := DefaultConfig()
	dense.PruneSigma = 0
	fig1 := []Pos{{0, 0}, {100, 0}, {200, 0}, {300, 0}, {300, 100}, {0, 200}, {100, 150}, {200, 150}}
	type plan struct {
		name string
		pl   *LinkPlan
	}
	plans := []plan{
		{"pruned city", NewLinkPlan(DefaultConfig(), randomCity(500, 10000, 11))},
		{"dense fig1", NewLinkPlan(dense, fig1)},
	}
	cfg, initial, step := mobileCity(400, 2500, 77)
	pl := NewLinkPlan(cfg, initial)
	for e := range 3 {
		pl = pl.Rebuild(step(e, 0.05))
		plans = append(plans, plan{fmt.Sprintf("mobile epoch %d", e+1), pl})
	}
	for _, c := range plans {
		links := 0
		pl := c.pl
		for a := 0; a < pl.n; a++ {
			row, _ := transmitRow(pl, a)
			for _, l := range row {
				b := l.id
				d := Dist(pl.positions[a], pl.positions[b])
				if !sameBits(pl.Distance(a, int(b)), d) || !sameBits(l.dbm, pl.cfg.MeanRxPowerDBm(d)) ||
					!sameBits(pl.MeanDBm(a, int(b)), l.dbm) || sim.Time(l.pd) != propDelay(d) {
					t.Fatalf("%s: link %d→%d reads (%v m, %v dBm, %v ns), positions give (%v m, %v dBm, %v)", c.name, a, b,
						pl.Distance(a, int(b)), l.dbm, l.pd, d, pl.cfg.MeanRxPowerDBm(d), propDelay(d))
				}
				links++
			}
			pl.EachAscNeighbor(a, func(b int32, d float64) {
				if !sameBits(d, Dist(pl.positions[a], pl.positions[b])) {
					t.Fatalf("%s: EachAscNeighbor gives link %d→%d %v m, positions %v m", c.name, a, b, d, Dist(pl.positions[a], pl.positions[b]))
				}
			})
			for b := 0; b < pl.n; b++ {
				if !sameBits(pl.Distance(a, b), pl.Distance(b, a)) || !sameBits(pl.MeanDBm(a, b), pl.MeanDBm(b, a)) {
					t.Fatalf("%s: pair %d, %d is not symmetric: Distance %v / %v, MeanDBm %v / %v", c.name, a, b,
						pl.Distance(a, b), pl.Distance(b, a), pl.MeanDBm(a, b), pl.MeanDBm(b, a))
				}
			}
		}
		if links == 0 {
			t.Fatalf("%s: no stored link: the case checks nothing", c.name)
		}
	}
}

// linkBytes sums element size × capacity over the plan's link-sized
// arrays: every slice field longer than the plan's per-station arrays,
// whatever its name and element type, so an array of bytes is counted as
// surely as one of IDs, and a per-link array added back to LinkPlan is
// counted too.
func linkBytes(pl *LinkPlan) int {
	v := reflect.ValueOf(pl).Elem()
	total := 0
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice && f.Len() > pl.Stations()+1 {
			total += f.Cap() * int(f.Type().Elem().Size())
		}
	}
	return total
}

// TestLinkPlanBytesPerLink holds the plan to who hears whom, at the bytes
// per stored link the cases measure, rounded up to the third decimal (the
// pruned city reads 1.00005, the others 1.00000): a row stores the gaps between its
// ascending neighbour IDs, nearly all of which fit one byte, pruned, built
// or patched, and dense. A random layout's rows are dense in ID order, a
// dense plan's gaps are 1. An int32 ID per link reads 4, and a mean power,
// a delay or a second ID array back in LinkPlan 5 or more: what a
// transmitter reads per frame is derived by the Medium.
func TestLinkPlanBytesPerLink(t *testing.T) {
	dense := DefaultConfig()
	dense.PruneSigma = 0
	cfg, initial, step := mobileCity(800, 4000, 3)
	built := NewLinkPlan(cfg, initial)
	for _, c := range []struct {
		name  string
		pl    *LinkPlan
		limit float64
	}{
		{"pruned city", NewLinkPlan(DefaultConfig(), randomCity(2000, 20000, 5)), 1.001},
		{"pruned mobile city", built, 1.001},
		{"patched epoch", built.Rebuild(step(0, 0.05)), 1.001},
		{"dense", NewLinkPlan(dense, randomCity(60, 600, 3)), 1.001},
	} {
		links := c.pl.Links()
		if links <= c.pl.Stations()+1 {
			t.Fatalf("%s: %d links for %d stations: too few to tell link arrays from station arrays", c.name, links, c.pl.Stations())
		}
		if per := float64(linkBytes(c.pl)) / float64(links); per > c.limit {
			t.Errorf("%s: %.5f bytes per stored link, over %.3f", c.name, per, c.limit)
		} else {
			t.Logf("%s: %d links, %.5f bytes each", c.name, links, per)
		}
	}
}

// TestRowCodecGapBoundaries: a row encodes and decodes its IDs exactly
// across the gaps where a uvarint grows a byte — 127 and 128, 16383 and
// 16384, 2²¹ — from a first ID of 0 up to the largest int32 ID, each gap
// costing the bytes its size says, within the bound the plan builders size
// their arrays by. Plans of a few dozen stations only ever have one-byte
// gaps.
func TestRowCodecGapBoundaries(t *testing.T) {
	for _, c := range []struct {
		gaps  []int32
		bytes int
	}{
		{[]int32{0}, 1},
		{[]int32{0, 127, 128}, 1 + 1 + 2},
		{[]int32{127, 16383, 16384}, 1 + 2 + 3},
		{[]int32{128, 1<<21 - 1, 1 << 21}, 2 + 3 + 4},
		{[]int32{1<<28 - 1, 1 << 28}, 4 + 5},
		{[]int32{math.MaxInt32}, 5},
		{[]int32{0, 1, math.MaxInt32 - 1}, 1 + 1 + 5},
	} {
		var ids []int32
		id := int32(0)
		for _, g := range c.gaps {
			id += g
			ids = append(ids, id)
		}
		pl := &LinkPlan{off: []int64{0, 0}}
		pl.appendIDs(ids)
		pl.off[1] = int64(len(pl.rows))
		if len(pl.rows) != c.bytes || pl.Links() != len(ids) {
			t.Errorf("gaps %v: %d bytes for %d links, want %d for %d", c.gaps, len(pl.rows), pl.Links(), c.bytes, len(ids))
		}
		if got := ascNeighbors(pl, 0); !slices.Equal(got, ids) {
			t.Errorf("gaps %v: encoded %v, decoded %v", c.gaps, ids, got)
		}
		if n := int(id) + 1; rowBytes(len(ids), n) < len(pl.rows) {
			t.Errorf("gaps %v: %d bytes, over the %d rowBytes bounds a row of %d IDs below %d by",
				c.gaps, len(pl.rows), rowBytes(len(ids), n), len(ids), n)
		}
	}
}

// TestPlanRefusesBadPositions: a link plan over a coordinate that is not
// finite, or over stations further apart than its int32-nanosecond delays
// can span, panics naming the station — built or rebuilt — while
// CheckPositions, which callers run first, reports the same as an error.
func TestPlanRefusesBadPositions(t *testing.T) {
	good := []Pos{{0, 0}, {100, 0}, {200, 0}}
	for _, tc := range []struct {
		name    string
		station int
		pos     Pos
	}{
		{"NaN", 1, Pos{X: math.NaN(), Y: 0}},
		{"-Inf", 2, Pos{X: 0, Y: math.Inf(-1)}},
		{"span", 2, Pos{X: 5e8, Y: 5e8}},
	} {
		bad := append([]Pos(nil), good...)
		bad[tc.station] = tc.pos
		want := fmt.Sprintf("station %d at", tc.station)
		if err := CheckPositions(bad); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: CheckPositions returned %v, want an error naming station %d", tc.name, err, tc.station)
		}
		for _, build := range []struct {
			name string
			fn   func()
		}{
			{"NewLinkPlan", func() { NewLinkPlan(DefaultConfig(), bad) }},
			{"Rebuild", func() { NewLinkPlan(DefaultConfig(), good).Rebuild(bad) }},
		} {
			func() {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
						t.Errorf("%s: %s recovered %q, want a panic naming station %d", tc.name, build.name, msg, tc.station)
					}
				}()
				build.fn()
			}()
		}
	}
	// The widest layout a plan holds: 600,000 km across.
	if err := CheckPositions([]Pos{{0, 0}, {6e8, 0}}); err != nil {
		t.Fatalf("a 600,000 km layout: %v", err)
	}
}

// TestPlanOverContinentalLayout: stations hundreds of thousands of
// kilometres apart — within what CheckPositions admits, and thousands of
// pruning radii — get a plan from a grid of at most maxGridCells cells, and
// the plan keeps exactly the pairs the power predicate keeps.
func TestPlanOverContinentalLayout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PruneSigma = 3
	pos := randomCity(40, 2000, 7)
	pos = append(pos, Pos{X: 4e8, Y: 4e8}, Pos{X: 4e8 + 300, Y: 4e8}, Pos{X: -1e3, Y: 4e8})
	if err := CheckPositions(pos); err != nil {
		t.Fatal(err)
	}
	radius := cfg.rangeFor(cfg.CSThreshDBm-cfg.PruneSigma*cfg.ShadowSigmaDB) * 1.001
	if g := newPosGrid(pos, radius); len(g.start)-1 > maxGridCells {
		t.Fatalf("a grid of %d cells, over %d", len(g.start)-1, maxGridCells)
	}
	pl := NewLinkPlan(cfg, pos)
	for a := range pos {
		for b := range pos {
			want := a != b && cfg.MeanRxPowerDBm(Dist(pos[a], pos[b])) >= pl.pruneCutoff
			if pl.has(a, b) != want {
				t.Fatalf("pair %d→%d at %v m: stored %v, the predicate says %v", a, b, Dist(pos[a], pos[b]), pl.has(a, b), want)
			}
		}
	}
	if !pl.has(40, 41) || pl.has(40, 0) {
		t.Fatal("the far pair must be linked and the far cluster cut off from the city")
	}
}
