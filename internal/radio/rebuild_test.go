package radio

import (
	"slices"
	"testing"

	"ripple/internal/phys"
	"ripple/internal/sim"
)

// plansEqual diffs two plans: their link counts, every station's decoded
// row, the encoded rows byte for byte and every station's derived transmit
// row — IDs, mean powers, delays and delay order; any mismatch fails the
// test. Each plan's link count is its decoded rows' as well.
func plansEqual(t *testing.T, want, got *LinkPlan) {
	t.Helper()
	if want.n != got.n || want.pruned != got.pruned || want.pruneCutoff != got.pruneCutoff {
		t.Fatalf("plan headers differ: n %d/%d pruned %v/%v cutoff %g/%g",
			want.n, got.n, want.pruned, got.pruned, want.pruneCutoff, got.pruneCutoff)
	}
	if !slices.Equal(want.positions, got.positions) {
		t.Fatal("positions differ")
	}
	if want.Links() != got.Links() {
		t.Fatalf("link counts differ: %d, %d", want.Links(), got.Links())
	}
	decoded := 0
	for i := 0; i < want.n; i++ {
		wids, gids := ascNeighbors(want, i), ascNeighbors(got, i)
		if !slices.Equal(wids, gids) {
			t.Fatalf("station %d's neighbours differ: %v, %v", i, wids, gids)
		}
		decoded += len(gids)
	}
	if decoded != got.Links() {
		t.Fatalf("%d links decoded, Links() says %d", decoded, got.Links())
	}
	if !slices.Equal(want.off, got.off) || !slices.Equal(want.rows, got.rows) {
		t.Fatal("encoded rows differ")
	}
	for i := 0; i < want.n; i++ {
		wrow, word := transmitRow(want, i)
		grow, gord := transmitRow(got, i)
		if !slices.EqualFunc(wrow, grow, func(a, b link) bool {
			return a.id == b.id && a.pd == b.pd && sameBits(a.dbm, b.dbm)
		}) {
			t.Fatalf("station %d's transmit rows differ", i)
		}
		if !slices.Equal(word, gord) || (word == nil) != (gord == nil) {
			t.Fatalf("station %d's delay orders differ: %v, %v", i, word, gord)
		}
	}
}

// mobileCity builds a pruned scattered layout and a deterministic sequence
// of perturbed position sets, moving a given fraction of stations per
// epoch by up to maxStep metres (plus occasional long hops so rows gain
// and lose whole neighborhoods).
func mobileCity(n int, side float64, seed uint64) (Config, []Pos, func(epoch int, frac float64) []Pos) {
	cfg := DefaultConfig()
	cfg.PruneSigma = 3
	rng := sim.NewRNG(seed, 0)
	initial := make([]Pos, n)
	for i := range initial {
		initial[i] = Pos{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	cur := append([]Pos(nil), initial...)
	step := func(epoch int, frac float64) []Pos {
		next := append([]Pos(nil), cur...)
		for i := range next {
			if rng.Float64() >= frac {
				continue
			}
			if rng.Float64() < 0.2 {
				// Long hop: teleport anywhere, churning whole rows.
				next[i] = Pos{X: rng.Float64() * side, Y: rng.Float64() * side}
			} else {
				next[i].X += (2*rng.Float64() - 1) * 120
				next[i].Y += (2*rng.Float64() - 1) * 120
			}
		}
		cur = next
		return next
	}
	return cfg, initial, step
}

// TestRebuildMatchesFromScratch is the bit-equivalence property of the
// incremental epoch rebuild: across many epochs of random motion, at
// several motion fractions (including ones above the full-rebuild
// fallback threshold), Rebuild must produce exactly the plan a fresh
// NewLinkPlan builds over the same positions.
func TestRebuildMatchesFromScratch(t *testing.T) {
	for _, frac := range []float64{0.02, 0.15, 0.6} {
		cfg, initial, step := mobileCity(400, 2500, 77)
		pl := NewLinkPlan(cfg, initial)
		for epoch := 0; epoch < 8; epoch++ {
			positions := step(epoch, frac)
			pl = pl.Rebuild(positions)
			plansEqual(t, NewLinkPlan(cfg, positions), pl)
		}
	}
}

// TestRebuildNoMotionReturnsSamePlan checks the degenerate epoch: when no
// station moved, Rebuild hands back the identical (immutable) plan.
func TestRebuildNoMotionReturnsSamePlan(t *testing.T) {
	cfg, initial, _ := mobileCity(100, 1000, 5)
	pl := NewLinkPlan(cfg, initial)
	if pl.Rebuild(append([]Pos(nil), initial...)) != pl {
		t.Fatal("Rebuild over identical positions should return the receiver")
	}
}

// TestRebuildUnprunedFallsBack checks dense plans rebuild fully and still
// match from scratch.
func TestRebuildUnprunedFallsBack(t *testing.T) {
	cfg, initial, step := mobileCity(60, 400, 9)
	cfg.PruneSigma = 0
	pl := NewLinkPlan(cfg, initial)
	positions := step(0, 0.1)
	got := pl.Rebuild(positions)
	if got == pl {
		t.Fatal("Rebuild returned the old plan despite motion")
	}
	plansEqual(t, NewLinkPlan(cfg, positions), got)
}

// TestRebuildLeavesOldPlanIntact guards the immutability contract: the
// epoch e plan must stay byte-stable while epoch e+1 is derived from it
// (runs on epoch e are still reading it).
func TestRebuildLeavesOldPlanIntact(t *testing.T) {
	cfg, initial, step := mobileCity(200, 1500, 13)
	pl := NewLinkPlan(cfg, initial)
	snapshot := NewLinkPlan(cfg, initial)
	pl.Rebuild(step(0, 0.1))
	plansEqual(t, snapshot, pl)
}

// TestSetPlanSwapsPositions checks the medium adopts the new plan's
// geometry for subsequent queries.
func TestSetPlanSwapsPositions(t *testing.T) {
	cfg, initial, step := mobileCity(50, 600, 21)
	eng := sim.NewEngine()
	pl := NewLinkPlan(cfg, initial)
	m := NewMediumOn(eng, pl, phys.Default(), sim.NewRNG(1, 1))
	next := pl.Rebuild(step(0, 0.5))
	m.SetPlan(next)
	if m.Plan() != next {
		t.Fatal("Plan() did not swap")
	}
	if got, want := m.Distance(0, 1), Dist(next.positions[0], next.positions[1]); got != want {
		t.Fatalf("Distance after swap = %g, want %g", got, want)
	}
}

// TestRebuildSizesItsArraysOnce: a Markov step in which movers converge on
// one place adds links by the tens of thousands, and the row pass must not
// pay for them by reallocating: Rebuild sizes its link array once, from
// what its dirty pass counted, so however many links a step adds it makes
// the same few dozen allocations, and the array it keeps is exactly as long
// as its contents. NewLinkPlan over the same positions sizes its array once
// as well, from its candidate count, and makes the same allocations at
// every density. Both are held to their row bounds outright: buildRows
// panics on a row longer than its bound, so a dirty pass or candidate count
// that undercounted a single row fails here (rowBytes, which turns the
// bounds into bytes, is held by TestRowCodecGapBoundaries).
func TestRebuildSizesItsArraysOnce(t *testing.T) {
	cfg, initial, _ := mobileCity(800, 4000, 21)
	pl := NewLinkPlan(cfg, initial)
	var base, built float64
	for _, movers := range []int{10, 40, 100, 190} {
		pos := append([]Pos(nil), initial...)
		for i := 0; i < movers; i++ {
			pos[i*4] = Pos{X: 2000 + float64(i%10), Y: 2000 + float64(i/10)}
		}
		var np, fresh *LinkPlan
		allocs := testing.AllocsPerRun(3, func() { np = pl.Rebuild(pos) })
		freshAllocs := testing.AllocsPerRun(3, func() { fresh = NewLinkPlan(cfg, pos) })
		if base == 0 {
			base, built = allocs, freshAllocs
		}
		added := np.Links() - pl.Links()
		if allocs > base+2 {
			t.Errorf("%d movers, %d links added: %.0f allocations, %.0f with 10 movers", movers, added, allocs, base)
		}
		if freshAllocs != built {
			t.Errorf("%d movers: NewLinkPlan made %.0f allocations, %.0f with 10 movers", movers, freshAllocs, built)
		}
		for _, p := range []struct {
			name string
			pl   *LinkPlan
		}{{"Rebuild", np}, {"NewLinkPlan", fresh}} {
			if c := cap(p.pl.rows); c != len(p.pl.rows) {
				t.Errorf("%d movers: %s left an array of capacity %d for %d bytes of rows", movers, p.name, c, len(p.pl.rows))
			}
		}
		if movers == 190 && added < pl.Links()/4 {
			t.Fatalf("190 movers added %d links to %d: the step does not densify", added, pl.Links())
		}
	}
}
