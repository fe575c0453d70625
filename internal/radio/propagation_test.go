package radio

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultConfigCalibration(t *testing.T) {
	c := DefaultConfig()
	// docs/model.md's calibration: ≈0.5% loss at 100 m, ≈25% at 200 m,
	// ≈65% at 300 m (the Fig. 1 direct link).
	cases := []struct {
		d        float64
		min, max float64
	}{
		{100, 0.001, 0.02},
		{200, 0.15, 0.35},
		{300, 0.55, 0.75},
		{50, 0, 0.001},
		{600, 0.97, 1},
	}
	for _, cse := range cases {
		got := c.LossProb(cse.d)
		if got < cse.min || got > cse.max {
			t.Errorf("LossProb(%gm) = %.4f, want in [%g, %g]", cse.d, got, cse.min, cse.max)
		}
	}
}

func TestLossProbAtHalfRange(t *testing.T) {
	c := DefaultConfig()
	if got := c.LossProb(DefaultRange); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("LossProb at DefaultRange = %.6f, want 0.5", got)
	}
}

func TestLossProbMonotoneProperty(t *testing.T) {
	c := DefaultConfig()
	prop := func(a, b uint16) bool {
		d1, d2 := float64(a%2000)+1, float64(b%2000)+1
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		return c.LossProb(d1) <= c.LossProb(d2)+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDeliveryProbDiscountsBER(t *testing.T) {
	c := DefaultConfig()
	c.BitErrorRate = 1e-5
	noBits := c.DeliveryProb(100, 0)
	withBits := c.DeliveryProb(100, 8000)
	want := noBits * math.Pow(1-1e-5, 8000)
	if math.Abs(withBits-want) > 1e-9 {
		t.Fatalf("DeliveryProb = %v, want %v", withBits, want)
	}
	if withBits >= noBits {
		t.Fatal("BER must reduce delivery probability")
	}
}

func TestMeanRxPowerFollowsPathLossExponent(t *testing.T) {
	c := DefaultConfig()
	// Doubling distance costs 10·n·log10(2) ≈ 15.05 dB at exponent 5.
	drop := c.MeanRxPowerDBm(100) - c.MeanRxPowerDBm(200)
	if math.Abs(drop-15.0514) > 0.01 {
		t.Fatalf("power drop per doubling = %.4f dB, want ≈15.05", drop)
	}
}

func TestMeanRxPowerClampsBelowReference(t *testing.T) {
	c := DefaultConfig()
	if c.MeanRxPowerDBm(0.1) != c.MeanRxPowerDBm(1) {
		t.Fatal("distances below 1 m must clamp to the reference distance")
	}
}

func TestRangesConsistent(t *testing.T) {
	c := DefaultConfig()
	if math.Abs(c.RXRange()-DefaultRange) > 0.5 {
		t.Fatalf("RXRange = %.1f, want %.0f", c.RXRange(), DefaultRange)
	}
	// CS threshold 13 dB below RX → range ratio 10^(13/50) ≈ 1.82.
	ratio := c.CSRange() / c.RXRange()
	if math.Abs(ratio-math.Pow(10, 13.0/50)) > 0.01 {
		t.Fatalf("CS/RX range ratio = %.3f", ratio)
	}
}

func TestTxPowerMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	// 281 mW = 24.487 dBm (§IV: "transmission power 281 mW").
	if math.Abs(c.TxPowerDBm-24.487) > 0.01 {
		t.Fatalf("TxPowerDBm = %.3f, want 24.487", c.TxPowerDBm)
	}
	if c.PathLossExp != 5 || c.ShadowSigmaDB != 8 {
		t.Fatalf("shadowing params = (%g, %g), want (5, 8)", c.PathLossExp, c.ShadowSigmaDB)
	}
}

func TestZeroSigmaLossIsStep(t *testing.T) {
	c := DefaultConfig()
	c.ShadowSigmaDB = 0
	if c.LossProb(DefaultRange-1) != 0 {
		t.Fatal("inside range must be lossless with zero shadowing")
	}
	if c.LossProb(DefaultRange+1) != 1 {
		t.Fatal("outside range must be total loss with zero shadowing")
	}
}

func TestDist(t *testing.T) {
	if got := Dist(Pos{0, 0}, Pos{3, 4}); got != 5 {
		t.Fatalf("Dist = %v, want 5", got)
	}
}
