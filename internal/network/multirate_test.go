package network

import (
	"testing"

	"ripple/internal/phys"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

// TestMultiRateUpshiftsShortHops: at a 6 Mbps base rate over clean 100 m
// hops, the oracle can upshift toward 54 Mbps, multiplying throughput.
// This is the paper's §V future-work scenario.
func TestMultiRateUpshiftsShortHops(t *testing.T) {
	top, path := topology.Line(3)
	rc := radio.DefaultConfig()
	rc.BitErrorRate = 1e-6
	base := Config{
		Positions: top.Positions,
		Radio:     rc,
		Phy:       phys.LowRate(),
		Scheme:    DCF,
		Flows:     []FlowSpec{{ID: 1, Path: path, Kind: FTP}},
		Duration:  3 * sim.Second,
		Seed:      5,
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	fast := base
	fast.MultiRate = true
	boosted, err := Run(fast)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("6 Mbps fixed: %.2f Mbps; multi-rate: %.2f Mbps",
		plain.TotalMbps, boosted.TotalMbps)
	if boosted.TotalMbps < 2*plain.TotalMbps {
		t.Fatalf("multi-rate should far exceed the fixed 6 Mbps base: %.2f vs %.2f",
			boosted.TotalMbps, plain.TotalMbps)
	}
}

// TestMultiRateHarmlessWhenBaseOptimal: at 216 Mbps base over marginal
// links, the oracle stays at or below base — never worse than fixed-rate by
// more than noise.
func TestMultiRateStaysRobustOnWeakLinks(t *testing.T) {
	// 200 m hops: ≈25% loss at base; the oracle should downshift and keep
	// the link usable.
	positions := []radio.Pos{{X: 0}, {X: 200}}
	rc := radio.DefaultConfig()
	rc.BitErrorRate = 1e-6
	cfg := Config{
		Positions: positions,
		Radio:     rc,
		Scheme:    DCF,
		Flows:     []FlowSpec{{ID: 1, Path: routing.Path{0, 1}, Kind: FTP}},
		Duration:  3 * sim.Second,
		Seed:      5,
		MultiRate: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMbps <= 0 {
		t.Fatal("multi-rate link delivered nothing")
	}
}

// TestMultiRateWithRipple: the extension must compose with the mTXOP
// scheme (relays inherit the frame's rate).
func TestMultiRateWithRipple(t *testing.T) {
	top, path := topology.Line(3)
	rc := radio.DefaultConfig()
	rc.BitErrorRate = 1e-6
	cfg := Config{
		Positions: top.Positions,
		Radio:     rc,
		Phy:       phys.LowRate(),
		Scheme:    Ripple,
		Flows:     []FlowSpec{{ID: 1, Path: path, Kind: FTP}},
		Duration:  3 * sim.Second,
		Seed:      5,
		MultiRate: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMbps < 3 {
		t.Fatalf("RIPPLE multi-rate = %.2f Mbps on a 6 Mbps base; expected upshift", res.TotalMbps)
	}
}
