package radio

import (
	"math"
	"testing"
)

// TestKeepsBoundary: keeps, which decides most pairs by squared distance,
// answers as the power test on the distance does — at (1 ± 1e-9) and
// (1 ± 2e-9) times the keep radius in many directions, below the 1 m at
// which MeanRxPowerDBm clamps, and for a keep radius below 1 m, where the
// clamp keeps nothing the squared distance alone would keep, and for one of
// exactly 1 m, where the band straddles the clamp. The default radio's band
// is live, so the squared distance does answer most pairs.
func TestKeepsBoundary(t *testing.T) {
	tiny, edge := DefaultConfig(), DefaultConfig()
	tiny.PruneSigma, edge.PruneSigma = 0.5, 0.5
	tiny.CSThreshDBm = tiny.TxPowerDBm - tiny.RefLossDB + 5 // keep radius under 1 m
	edge.CSThreshDBm = edge.TxPowerDBm - edge.RefLossDB + 4 // keep radius 1 m
	for _, cfg := range []Config{DefaultConfig(), tiny, edge} {
		cutoff := cfg.CSThreshDBm - cfg.PruneSigma*cfg.ShadowSigmaDB
		r := cfg.rangeFor(cutoff)
		if cfg == tiny && r >= 1 {
			t.Fatalf("keep radius %g m: the case wants one below 1 m", r)
		}
		if band := cfg.powerBand(cutoff); cfg == DefaultConfig() && !(band.lo2 > 1 && band.hi2 < math.Inf(1)) {
			t.Fatalf("keep radius %g m: band %+v decides no pair", r, band)
		}
		var ds []float64
		for _, f := range []float64{1 - 2e-9, 1 - 1e-9, 1 - 5e-10, 1, 1 + 5e-10, 1 + 1e-9, 1 + 2e-9, 0.5, 2} {
			ds = append(ds, r*f)
		}
		ds = append(ds, 0, 1e-3, 0.5, 1-1e-9, 1, 1+1e-9)
		origin := Pos{X: -321.75, Y: 987.5}
		pos := []Pos{origin}
		for _, d := range ds {
			for k := range 16 {
				th := float64(k) * math.Pi / 8.3
				pos = append(pos, Pos{X: origin.X + d*math.Cos(th), Y: origin.Y + d*math.Sin(th)})
			}
		}
		pl := NewLinkPlan(cfg, pos)
		for j := 1; j < len(pos); j++ {
			d := Dist(origin, pos[j])
			want := cfg.MeanRxPowerDBm(d) >= pl.pruneCutoff
			if got := pl.keeps(0, int32(j)); got != want {
				t.Errorf("keep radius %g m, pair %g m apart: keeps %v, the power test %v", r, d, got, want)
			}
		}
	}
}
