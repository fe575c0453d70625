package rateadapt

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
	a := Set80211a()
	if len(a) != 8 || a[0] != 6e6 || a[7] != 54e6 {
		t.Fatalf("Set80211a = %v", a)
	}
	w := SetWideband()
	if w[7] != 216e6 {
		t.Fatalf("SetWideband top = %v, want 216e6 (Table I)", w[7])
	}
	if !a.Validate() || !w.Validate() {
		t.Fatal("standard sets must validate")
	}
	if (RateSet{}).Validate() {
		t.Fatal("empty set must not validate")
	}
	if (RateSet{2, 1}).Validate() {
		t.Fatal("descending set must not validate")
	}
}

func TestOracleStrongLinkPicksTopRate(t *testing.T) {
	o := NewOracle(Set80211a(), 6e6)
	if got := o.Rate(0.9999); got != 54e6 {
		t.Fatalf("near-perfect link rate = %v, want 54e6", got)
	}
}

func TestOracleWeakLinkStaysLow(t *testing.T) {
	o := NewOracle(Set80211a(), 6e6)
	if got := o.Rate(0.5); got != 6e6 {
		t.Fatalf("marginal link rate = %v, want base 6e6", got)
	}
}

func TestOracleMonotoneInQuality(t *testing.T) {
	o := NewOracle(Set80211a(), 6e6)
	prev := 0.0
	for p := 0.3; p <= 0.999; p += 0.01 {
		r := o.Rate(p)
		if r < prev {
			t.Fatalf("rate decreased with link quality at p=%.2f", p)
		}
		prev = r
	}
}

func TestOracleRespectsMinProb(t *testing.T) {
	// With a stricter target the chosen rate can only drop.
	loose := NewOracle(Set80211a(), 6e6)
	strict := NewOracle(Set80211a(), 6e6)
	strict.MinProb = 0.99
	for _, p := range []float64{0.8, 0.9, 0.97, 0.999} {
		if strict.Rate(p) > loose.Rate(p) {
			t.Fatalf("stricter target picked faster rate at p=%v", p)
		}
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
