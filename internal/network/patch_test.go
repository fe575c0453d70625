package network

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
)

// patchLayout maps bytes to a radio config, a layout and up to three steps
// of motion. data[0] picks the station count (1 to 511); data[1] the
// layout: scattered at random (even) or a jittered grid of 128 to 255
// columns (odd), whose rows put a station's neighbours in the next grid row
// more than 128 IDs after those in its own, so multi-byte gaps sit next to
// the movers a row is spliced at; data[2] the spacing; data[3] the radio
// (dense, 3σ or 6σ pruning, or 3σ without shadowing); data[4:12] the
// layout seed; then one byte per step, its mover share (up to one half,
// past the quarter at which a plan is built anew) in the low seven bits and
// whether movers jump anywhere (set) or step by up to a spacing. Missing
// bytes read as zero.
func patchLayout(data []byte) (radio.Config, []radio.Pos, [][]radio.Pos) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := 1 + 2*int(next())
	layout := next()
	spacing := 20 + 2*float64(next())
	rc := radio.DefaultConfig()
	switch next() % 4 {
	case 0:
		rc.PruneSigma = 0
	case 1:
		rc.PruneSigma = 3
	case 3:
		rc.PruneSigma, rc.ShadowSigmaDB = 3, 0
	}
	var seed uint64
	for range 8 {
		seed = seed<<8 | uint64(next())
	}
	rng := sim.NewRNG(seed, 0)
	cols := n
	if layout&1 == 1 {
		cols = 128 + int(layout>>1)
	}
	side := spacing * math.Sqrt(float64(n))
	pos := make([]radio.Pos, n)
	for i := range pos {
		if layout&1 == 1 {
			pos[i] = radio.Pos{X: float64(i%cols) * spacing, Y: float64(i/cols) * spacing}
			pos[i].X += (rng.Float64() - 0.5) * spacing / 4
			pos[i].Y += (rng.Float64() - 0.5) * spacing / 4
			continue
		}
		pos[i] = radio.Pos{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	var steps [][]radio.Pos
	cur := pos
	for len(data) > 0 && len(steps) < 3 {
		b := next()
		share, jump := float64(b&0x7f)/254, b&0x80 != 0
		step := slices.Clone(cur)
		for i := range step {
			if rng.Float64() >= share {
				continue
			}
			if jump {
				step[i] = pos[rng.IntN(n)]
				step[i].X += (rng.Float64() - 0.5) * spacing
				continue
			}
			step[i].X += (rng.Float64() - 0.5) * 2 * spacing
			step[i].Y += (rng.Float64() - 0.5) * 2 * spacing
		}
		steps = append(steps, step)
		cur = step
	}
	return rc, pos, steps
}

// patchSeeds are a scattered layout; three grids of 228 columns, pruned at
// 3σ, at 6σ and without shadowing, each a few grid rows deep; a small dense
// layout; and a step past the quarter of movers at which Rebuild builds its
// plan anew.
func patchSeeds() [][]byte {
	s := func(n, layout, spacing, radio byte, steps ...byte) []byte {
		return append([]byte{n, layout, spacing, radio, 0, 0, 0, 0, 0, 0, n, layout}, steps...)
	}
	return [][]byte{
		s(200, 0, 90, 1, 6, 0x86, 20),
		s(240, 201, 40, 1, 5, 0x85, 8),
		s(240, 201, 140, 2, 6, 0x84),
		s(240, 201, 40, 3, 6, 0x84, 12),
		s(30, 0, 40, 0, 40, 0x90),
		s(150, 0, 60, 1, 100),
	}
}

// FuzzLinkTablePatch: over any layout, radio and steps of motion, the clean
// table an epoch lineage patches — each one over the arrays of the table two
// epochs back and in the lineage's scratch — equals linkTable over the
// step's plan built from nothing, link for link; so does the plan Rebuild
// splices, row for row.
func FuzzLinkTablePatch(f *testing.F) {
	for _, data := range patchSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLinkTablePatch(t, data)
	})
}

// checkLinkTablePatch runs one fuzz input and returns how many links of a
// mover in an unmoved row, old or new, sit next to a gap of 128 IDs or more:
// the splices that re-encode a multi-byte gap.
func checkLinkTablePatch(t *testing.T, data []byte) (wide int) {
	rc, pos, steps := patchLayout(data)
	prob := newLinkProb(rc)
	plan := radio.NewLinkPlan(rc, pos)
	ln := &lineage{clean: linkTable(plan, prob)}
	for e, step := range steps {
		fresh := radio.NewLinkPlan(rc, step)
		next := plan.Rebuild(step)
		for a := range step {
			if got, want := planRow(next, a), planRow(fresh, a); !slices.Equal(got, want) {
				t.Fatalf("step %d: station %d's plan row is %v, built from nothing %v", e, a, got, want)
			}
			if step[a] == plan.Positions()[a] {
				wide += wideMoverGaps(planRow(plan, a), step, plan) + wideMoverGaps(planRow(next, a), step, plan)
			}
		}
		spare := ln.spareClean
		got := ln.patchLinkTable(spare, plan, ln.clean, next, prob)
		if err := sameLinks(linkTable(fresh, prob), got); err != nil {
			t.Fatalf("step %d of %d stations: %v", e, len(step), err)
		}
		ln.spareClean, ln.clean, plan = ln.clean, got, next
	}
	return wide
}

// planRow is station a's plan neighbours, ascending.
func planRow(plan *radio.LinkPlan, a int) []int32 {
	var row []int32
	plan.EachAscNeighborID(a, func(j int32) { row = append(row, j) })
	return row
}

// wideMoverGaps counts the movers of row (stations whose position differs
// between prev and step) that are 128 IDs or more from the ID before or
// after them.
func wideMoverGaps(row []int32, step []radio.Pos, prev *radio.LinkPlan) int {
	wide := 0
	for k, j := range row {
		if step[j] == prev.Positions()[j] {
			continue
		}
		if (k > 0 && j-row[k-1] >= 128) || (k+1 < len(row) && row[k+1]-j >= 128) || (k == 0 && j >= 128) {
			wide++
		}
	}
	return wide
}

// sameLinks reports the first link in which two tables differ: a station's
// neighbours and the bits of each link's ETX.
func sameLinks(want, got *routing.Table) error {
	if want.Stations() != got.Stations() || want.Links() != got.Links() {
		return fmt.Errorf("%d stations and %d links, want %d and %d", got.Stations(), got.Links(), want.Stations(), want.Links())
	}
	type link struct {
		b   pkt.NodeID
		etx uint64
	}
	row := func(t *routing.Table, a pkt.NodeID) []link {
		var r []link
		t.EachNeighbor(a, func(b pkt.NodeID, etx float64) { r = append(r, link{b, math.Float64bits(etx)}) })
		return r
	}
	for a := range pkt.NodeID(want.Stations()) {
		if w, g := row(want, a), row(got, a); !slices.Equal(w, g) {
			return fmt.Errorf("station %d's links are %v, want %v", a, g, w)
		}
	}
	return nil
}

// TestLinkTablePatchSplicesWideGaps: the grid seeds of FuzzLinkTablePatch
// splice rows next to gaps of 128 IDs or more, so the seed corpus alone
// re-encodes multi-byte gaps.
func TestLinkTablePatchSplicesWideGaps(t *testing.T) {
	for _, data := range patchSeeds()[1:4] {
		if wide := checkLinkTablePatch(t, data); wide == 0 {
			t.Errorf("seed %v: no mover sits next to a gap of 128 IDs", data[:4])
		}
	}
}

// TestLinkProbBoundary: the squared-distance answer of linkProb is the one
// the distance gives — 0 past reach, else 1 − LossProb — at (1 ± 1e-9) and
// (1 ± 2e-9) times reach in many directions, below the 1 m clamp, and for a
// reach below 1 m.
func TestLinkProbBoundary(t *testing.T) {
	near := radio.DefaultConfig()
	near.RXThreshDBm = near.TxPowerDBm - near.RefLossDB + 20 // reach under 1 m
	for _, rc := range []radio.Config{radio.DefaultConfig(), near} {
		lp := newLinkProb(rc)
		if rc == near && lp.reach >= 1 {
			t.Fatalf("reach %g m: the case wants one below 1 m", lp.reach)
		}
		var ds []float64
		for _, f := range []float64{1 - 2e-9, 1 - 1e-9, 1 - 5e-10, 1, 1 + 5e-10, 1 + 1e-9, 1 + 2e-9, 0.5, 2} {
			ds = append(ds, lp.reach*f)
		}
		ds = append(ds, 0, 1e-3, 0.5, 1-1e-9, 1, 1+1e-9)
		origin := radio.Pos{X: 1234.5, Y: -678.25}
		for _, d := range ds {
			for k := range 16 {
				th := float64(k) * math.Pi / 8.3
				b := radio.Pos{X: origin.X + d*math.Cos(th), Y: origin.Y + d*math.Sin(th)}
				want := 0.0
				if dist := radio.Dist(origin, b); dist <= lp.reach {
					want = 1 - rc.LossProb(dist)
				}
				if got := lp.between(origin, b); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("reach %g m, pair %g m apart at %.2f rad: probability %v, the distance gives %v", lp.reach, d, th, got, want)
				}
			}
		}
	}
}
