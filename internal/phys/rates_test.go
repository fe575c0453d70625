package phys

import (
	"math"
	"testing"
	"testing/quick"
)

func TestThresholdDeltaAnchors(t *testing.T) {
	// Same rate: no shift.
	if got := ThresholdDeltaDB(54e6, 54e6); got != 0 {
		t.Fatalf("delta(54,54) = %v", got)
	}
	// 54 vs 6 Mbps: ≈17.8 dB (the 802.11a sensitivity span).
	got := ThresholdDeltaDB(54e6, 6e6)
	if math.Abs(got-17.8) > 0.3 {
		t.Fatalf("delta(54,6) = %.2f dB, want ≈17.8", got)
	}
	// Slower than base extends range (negative delta).
	if ThresholdDeltaDB(6e6, 54e6) >= 0 {
		t.Fatal("downshift must lower the threshold")
	}
}

func TestRateSets(t *testing.T) {
	a := ladder(LowRate())
	if len(a) != 8 || a[0] != 6e6 || a[7] != 54e6 {
		t.Fatalf("802.11a ladder = %v", a)
	}
	w := ladder(Default())
	for i, r := range a {
		if w[i] != 4*r {
			t.Fatalf("wideband ladder = %v, want 4 × %v (top 216e6, Table I)", w, a)
		}
	}
}

// oracleRates is the multi-rate oracle's choice, in bits per second, over a
// grid of base-rate delivery probability × shadowing σ × PHY: the wideband
// ladder above the 216 Mbps Default, the 802.11a ladder above 6 Mbps
// LowRate, a 0.9 delivery target. The values are the selector's output as
// first recorded, kept literal so a rewrite of the selector must reproduce
// them.
var oracleRates = []struct {
	phy   string
	sigma float64
	prob  float64
	rate  float64
}{
	{"Default", 3, 0, 24e6}, {"Default", 3, 0.3, 96e6}, {"Default", 3, 0.5, 96e6},
	{"Default", 3, 0.9, 216e6}, {"Default", 3, 0.99, 216e6}, {"Default", 3, 0.999999, 216e6},
	{"Default", 3, 1, 216e6},
	{"Default", 8, 0, 24e6}, {"Default", 8, 0.3, 36e6}, {"Default", 8, 0.5, 48e6},
	{"Default", 8, 0.9, 216e6}, {"Default", 8, 0.99, 216e6}, {"Default", 8, 0.999999, 216e6},
	{"Default", 8, 1, 216e6},
	{"LowRate", 3, 0, 6e6}, {"LowRate", 3, 0.3, 6e6}, {"LowRate", 3, 0.5, 6e6},
	{"LowRate", 3, 0.9, 6e6}, {"LowRate", 3, 0.99, 6e6}, {"LowRate", 3, 0.999999, 18e6},
	{"LowRate", 3, 1, 54e6},
	{"LowRate", 8, 0, 6e6}, {"LowRate", 8, 0.3, 6e6}, {"LowRate", 8, 0.5, 6e6},
	{"LowRate", 8, 0.9, 6e6}, {"LowRate", 8, 0.99, 12e6}, {"LowRate", 8, 0.999999, 54e6},
	{"LowRate", 8, 1, 54e6},
}

// TestOracleRateTable holds OracleRate to oracleRates, and a σ that is not
// positive to the 8 dB default.
func TestOracleRateTable(t *testing.T) {
	phy := map[string]Params{"Default": Default(), "LowRate": LowRate()}
	for _, c := range oracleRates {
		if got := OracleRate(c.prob, c.sigma, phy[c.phy]); got != c.rate {
			t.Errorf("%s σ=%v p=%v: rate %v, want %v", c.phy, c.sigma, c.prob, got, c.rate)
		}
		if c.sigma == 8 {
			for _, unset := range []float64{0, -1} {
				if got := OracleRate(c.prob, unset, phy[c.phy]); got != c.rate {
					t.Errorf("%s σ=%v p=%v: rate %v, want σ=8's %v", c.phy, unset, c.prob, got, c.rate)
				}
			}
		}
	}
}

func TestOracleStrongLinkPicksTopRate(t *testing.T) {
	if got := OracleRate(0.9999, 8, LowRate()); got != 54e6 {
		t.Fatalf("near-perfect link rate = %v, want 54e6", got)
	}
}

func TestOracleWeakLinkStaysLow(t *testing.T) {
	if got := OracleRate(0.5, 8, LowRate()); got != 6e6 {
		t.Fatalf("marginal link rate = %v, want base 6e6", got)
	}
}

func TestOracleMonotoneInQuality(t *testing.T) {
	prev := 0.0
	for p := 0.3; p <= 0.999; p += 0.01 {
		r := OracleRate(p, 8, LowRate())
		if r < prev {
			t.Fatalf("rate decreased with link quality at p=%.2f", p)
		}
		prev = r
	}
}

func TestProbMarginRoundTrip(t *testing.T) {
	prop := func(raw uint16) bool {
		p := 0.02 + 0.96*float64(raw)/65535
		z := probToMargin(p)
		return math.Abs(marginToProb(z)-p) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
