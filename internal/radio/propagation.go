// Package radio simulates the shared wireless medium: log-distance path loss
// with per-frame lognormal shadowing (the NS-2 "Shadowing" model the paper
// configures with exponent 5 and deviation 8 dB), an i.i.d. bit-error
// process applied to decodable frames, carrier sensing, capture, and
// collision detection at each receiver.
package radio

import (
	"math"

	"ripple/internal/sim"
)

// Pos is a station position in metres.
type Pos struct{ X, Y float64 }

// Dist returns the Euclidean distance between two positions.
func Dist(a, b Pos) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Hypot(dx, dy)
}

// speedOfLight in metres per second, for propagation delay.
const speedOfLight = 299_792_458.0

// Config describes the radio environment. Use DefaultConfig for the paper's
// setting (shadowing exponent 5, deviation 8 dB, 281 mW transmit power).
type Config struct {
	// TxPowerDBm is the transmit power; 281 mW = 24.49 dBm (paper §IV).
	TxPowerDBm float64
	// PathLossExp is the log-distance path loss exponent (paper: 5).
	PathLossExp float64
	// RefLossDB is the path loss at the 1 m reference distance
	// (free-space at 2.4 GHz: ≈40.05 dB).
	RefLossDB float64
	// ShadowSigmaDB is the lognormal shadowing deviation (paper: 8 dB),
	// drawn independently per frame per link, which makes losses between
	// the source and different forwarders independent — the property
	// opportunistic routing exploits.
	ShadowSigmaDB float64
	// RXThreshDBm is the decode threshold: frames arriving below it are
	// sensed (if above CSThreshDBm) but cannot be decoded.
	RXThreshDBm float64
	// CSThreshDBm is the carrier-sense threshold; typically 10-20 dB below
	// RXThreshDBm so stations defer to transmissions they cannot decode.
	CSThreshDBm float64
	// CaptureDB: during overlapping receptions the stronger frame survives
	// if it exceeds the other by at least this margin, otherwise both are
	// corrupted (NS-2 capture model, 10 dB).
	CaptureDB float64
	// BitErrorRate is the i.i.d. BER applied to decodable frames
	// (paper: 1e-5 "noisy", 1e-6 "clear").
	BitErrorRate float64
	// PruneSigma controls receiver pruning in the medium's link cache: a
	// station whose mean received power is more than PruneSigma shadowing
	// deviations below the carrier-sense threshold is excluded from a
	// transmitter's neighbor list and never draws a shadowing sample.
	// 0 disables pruning and reproduces the unpruned medium's RNG stream
	// bit for bit; DefaultPruneSigma (the DefaultConfig setting) bounds
	// the per-receiver false-prune probability by Φ(−6) ≈ 1e−9, which is
	// statistically indistinguishable from the unpruned medium. With
	// ShadowSigmaDB == 0 pruning at any PruneSigma is exact.
	PruneSigma float64
}

// DefaultRange is the distance (metres) at which a frame is decoded with
// probability 1/2 under DefaultConfig. One topology "hop" of 100 m then has
// ≈0.5% frame loss, 200 m ≈25%, and 300 m (the SPR direct link in Fig. 1)
// ≈65% — reproducing "the link quality between source and destination is
// typically poor" while per-hop links are good.
const DefaultRange = 258.0

// DefaultPruneSigma is DefaultConfig's neighbor-pruning cutoff in shadowing
// deviations. Six sigma keeps the probability that a pruned receiver would
// actually have sensed a given frame below Φ(−6) ≈ 1e−9 — far below the
// resolution of any delivery or delay statistic — while excluding the vast
// majority of station pairs on large (Roofnet/WiGLE-scale) topologies.
const DefaultPruneSigma = 6

// DefaultConfig returns the paper's radio environment.
func DefaultConfig() Config {
	c := Config{
		TxPowerDBm:    10 * math.Log10(281), // 281 mW in dBm ≈ 24.49
		PathLossExp:   5,
		RefLossDB:     40.05,
		ShadowSigmaDB: 8,
		CaptureDB:     10,
		BitErrorRate:  1e-6,
		PruneSigma:    DefaultPruneSigma,
	}
	c.RXThreshDBm = c.MeanRxPowerDBm(DefaultRange)
	c.CSThreshDBm = c.RXThreshDBm - 13 // carrier-sense range ≈ 1.82× decode range
	return c
}

// Check passes the first field out of range to bad — its name, its value
// and the rule it breaks — and returns bad's error, or nil: the bit error
// rate is a probability below 1, the pruning cutoff is not negative (0
// disables pruning) and the path loss exponent is set, so that power falls
// with distance (a network.Config defaults only a Radio with no field set).
func (c Config) Check(bad func(field string, value any, rule string) error) error {
	switch {
	case !(c.BitErrorRate >= 0 && c.BitErrorRate < 1):
		return bad("BitErrorRate", c.BitErrorRate, "must lie in [0, 1)")
	case !(c.PruneSigma >= 0):
		return bad("PruneSigma", c.PruneSigma, "must not be negative (0 disables pruning)")
	case c.PathLossExp == 0:
		return bad("PathLossExp", c.PathLossExp, "must be set beside the other Radio fields")
	}
	return nil
}

// MeanRxPowerDBm returns the mean received power at distance d metres
// (before the shadowing draw).
func (c Config) MeanRxPowerDBm(d float64) float64 {
	if d < 1 {
		d = 1
	}
	return c.TxPowerDBm - c.RefLossDB - float64(10*c.PathLossExp*math.Log10(d))
}

// LossProb returns the analytic probability that a frame transmitted over
// distance d arrives below the decode threshold: Φ((RXThresh − mean)/σ).
// Used by the ETX route metric and by calibration tests.
func (c Config) LossProb(d float64) float64 {
	if c.ShadowSigmaDB == 0 {
		if c.MeanRxPowerDBm(d) >= c.RXThreshDBm {
			return 0
		}
		return 1
	}
	z := (c.RXThreshDBm - c.MeanRxPowerDBm(d)) / c.ShadowSigmaDB
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// DeliveryProb is 1 − LossProb, additionally discounted by the probability
// that all `bits` survive the i.i.d. bit-error process.
func (c Config) DeliveryProb(d float64, bits int) float64 {
	return (1 - c.LossProb(d)) * math.Pow(1-c.BitErrorRate, float64(bits))
}

// CSRange returns the carrier-sense range in metres implied by the config.
func (c Config) CSRange() float64 {
	return c.rangeFor(c.CSThreshDBm)
}

// RXRange returns the 50%-decode range in metres implied by the config.
func (c Config) RXRange() float64 {
	return c.rangeFor(c.RXThreshDBm)
}

func (c Config) rangeFor(thresh float64) float64 {
	// thresh = TxPower - RefLoss - 10*n*log10(d)  =>  solve for d.
	return math.Pow(10, (c.TxPowerDBm-c.RefLossDB-thresh)/(10*c.PathLossExp))
}

// bandRel is the relative half-width of a sqBand: far wider than the few
// ulps by which a squared distance's root and Hypot, or a computed power
// and the threshold it is held to, can stray from the exact values, and far
// thinner than any spacing of stations.
const bandRel = 1e-9

// sqBand decides a distance test by squared distance: a pair whose squared
// distance, clamped to at least 1 m² as MeanRxPowerDBm clamps the distance,
// is below lo2 passes it and one above hi2 fails it, for certain; a pair in
// between must be tested exactly.
type sqBand struct{ lo2, hi2 float64 }

// powerBand is the sqBand of the test MeanRxPowerDBm(d) >= thresh: pairs
// within bandRel of the radius rangeFor(thresh) are tested exactly. It relies
// on what pruneRadius relies on, that power falls as distance grows. Where
// the margin the band leaves in power does not clear the rounding of the
// powers by far, it leaves every pair to the exact test.
func (c Config) powerBand(thresh float64) sqBand {
	r := c.rangeFor(thresh)
	margin := 10 * c.PathLossExp * math.Log10(1+bandRel)
	noise := 1e-12 * (1 + math.Abs(c.TxPowerDBm) + math.Abs(c.RefLossDB) + math.Abs(thresh))
	if !(c.PathLossExp > 0 && margin > noise && r > 0 && !math.IsInf(r, 0)) {
		return sqBand{lo2: -1, hi2: math.Inf(1)}
	}
	lo, hi := r*(1-bandRel), r*(1+bandRel)
	return sqBand{lo2: lo * lo, hi2: hi * hi}
}

// propDelay returns the propagation delay over d metres.
func propDelay(d float64) sim.Time {
	return sim.Time(d / speedOfLight * 1e9)
}
