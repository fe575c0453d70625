package radio

import (
	"testing"

	"ripple/internal/sim"
)

// fuzzLayout maps bytes to a radio config, at most 64 station positions and
// the same positions after one step of motion. data[0] picks the station
// count, data[1] the metres per grid unit, data[2] the pruning (off, 3σ or
// 6σ); then two bytes place each station on a 256×256 grid, and one byte
// per station, odd for a mover, with a second for a mover's y step, moves
// it. Missing bytes read as zero.
func fuzzLayout(data []byte) (Config, []Pos, []Pos) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := 1 + int(next())%64
	scale := 1 + float64(next()%64)
	cfg := DefaultConfig()
	cfg.PruneSigma = []float64{0, 3, DefaultPruneSigma}[next()%3]
	pos := make([]Pos, n)
	for i := range pos {
		pos[i] = Pos{X: float64(next()) * scale, Y: float64(next()) * scale}
	}
	moved := append([]Pos(nil), pos...)
	for i := range moved {
		if m := next(); m&1 == 1 {
			moved[i].X += float64(int8(m)>>1) * scale
			moved[i].Y += float64(int8(next())) * scale / 4
		}
	}
	return cfg, pos, moved
}

// fuzzSeeds are five layouts of 20 to 48 stations, a few of them movers.
func fuzzSeeds() [][]byte {
	rng := sim.NewRNG(9, 0)
	var seeds [][]byte
	for _, c := range []struct{ n, scale, prune, moverEvery byte }{
		{31, 15, 1, 9}, {40, 7, 2, 5}, {24, 31, 1, 3}, {20, 3, 0, 4}, {48, 0, 1, 7},
	} {
		data := []byte{c.n, c.scale, c.prune}
		for range int(c.n) + 1 {
			data = append(data, byte(rng.IntN(256)), byte(rng.IntN(256)))
		}
		for i := range int(c.n) + 1 {
			if i%int(c.moverEvery) != 0 {
				data = append(data, byte(rng.IntN(256))&^1)
				continue
			}
			data = append(data, byte(rng.IntN(256))|1, byte(rng.IntN(256)))
		}
		seeds = append(seeds, data)
	}
	return seeds
}

// FuzzLinkPlanRebuild: over any layout and any step, Rebuild is NewLinkPlan
// array for array, and the plan's pair answers — whether it stores a link,
// the distance and the mean power — are the ones the positions give.
func FuzzLinkPlanRebuild(f *testing.F) {
	for _, data := range fuzzSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, pos, moved := fuzzLayout(data)
		got := NewLinkPlan(cfg, pos).Rebuild(moved)
		plansEqual(t, NewLinkPlan(cfg, moved), got)
		for a := range moved {
			for b := range moved {
				d := Dist(moved[a], moved[b])
				dbm := cfg.MeanRxPowerDBm(d)
				has := a != b && (!got.pruned || dbm >= got.pruneCutoff)
				if a == b {
					dbm = 0
				}
				if got.has(a, b) != has || !sameBits(got.Distance(a, b), d) || !sameBits(got.MeanDBm(a, b), dbm) {
					t.Fatalf("pair %d→%d at %v m: has %v, Distance %v, MeanDBm %v; positions give %v, %v, %v",
						a, b, d, got.has(a, b), got.Distance(a, b), got.MeanDBm(a, b), has, d, dbm)
				}
			}
		}
	})
}
