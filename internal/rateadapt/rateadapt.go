// Package rateadapt implements the multi-rate PHY extension the paper
// names as future work (§V: "extend it to take advantage of multiple PHY
// data rates"). A transmitter may pick any rate from a rate set; faster
// rates need a higher SNR, which the radio model expresses as a decode
// threshold raised by SensitivityDB·log10(rate/base) dB — calibrated
// against 802.11a receiver sensitivities (6 Mbps at −82 dBm to 54 Mbps at
// −65 dBm, ≈17.8 dB over a 9× rate span).
package rateadapt

import (
	"math"
	"sort"
)

// SensitivityDB is the decode-threshold penalty per decade of rate
// increase: Δthresh = SensitivityDB · log10(rate/base). 802.11a's 17.8 dB
// over log10(9) ≈ 0.954 decades gives ≈18.7 dB/decade.
const SensitivityDB = 18.7

// ThresholdDeltaDB returns how many dB the decode threshold rises when
// transmitting at `rate` instead of `base`. Negative for slower rates:
// dropping below the base rate extends range.
func ThresholdDeltaDB(rate, base float64) float64 {
	if rate <= 0 || base <= 0 {
		return 0
	}
	return SensitivityDB * math.Log10(rate/base)
}

// RateSet is the menu of PHY data rates available to a transmitter,
// ascending.
type RateSet []float64

// Set80211a returns the 802.11a/g OFDM rates.
func Set80211a() RateSet {
	return RateSet{6e6, 9e6, 12e6, 18e6, 24e6, 36e6, 48e6, 54e6}
}

// SetWideband returns the paper's 216 Mbps configuration scaled across the
// 802.11a ladder (×4, as 4 spatial streams would provide).
func SetWideband() RateSet {
	base := Set80211a()
	out := make(RateSet, len(base))
	for i, r := range base {
		out[i] = r * 4
	}
	return out
}

// Validate reports whether the set is non-empty and ascending.
func (s RateSet) Validate() bool {
	if len(s) == 0 {
		return false
	}
	return sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] })
}

// OracleSelector picks the fastest rate whose predicted delivery
// probability stays at or above MinProb, using the threshold-shift model:
// raising the threshold by Δ dB is equivalent to scaling the link margin,
// so the predicted probability at rate r is Φ(z − Δ(r)/σ) where z is the
// base-rate margin in standard deviations.
type OracleSelector struct {
	Rates   RateSet
	BaseBps float64
	SigmaDB float64
	MinProb float64
}

// NewOracle returns a selector over the given set with the paper's 8 dB
// shadowing deviation and a 90% target delivery probability.
func NewOracle(rates RateSet, baseBps float64) *OracleSelector {
	return &OracleSelector{Rates: rates, BaseBps: baseBps, SigmaDB: 8, MinProb: 0.9}
}

// Rate returns the PHY rate to use toward a receiver whose frame delivery
// probability at the base rate is baseProb (from the radio model's analytic
// link quality).
func (o *OracleSelector) Rate(baseProb float64) float64 {
	if len(o.Rates) == 0 {
		return o.BaseBps
	}
	best := o.Rates[0]
	z := probToMargin(baseProb)
	for _, r := range o.Rates {
		delta := ThresholdDeltaDB(r, o.BaseBps)
		p := marginToProb(z - delta/o.SigmaDB)
		if p >= o.MinProb {
			best = r
		}
	}
	return best
}

// probToMargin inverts Φ: the link margin in standard deviations that
// yields delivery probability p.
func probToMargin(p float64) float64 {
	if p <= 0 {
		return -8
	}
	if p >= 1 {
		return 8
	}
	// Newton iteration on Φ(z) − p, starting from a rational approximation.
	z := 0.0
	for i := 0; i < 40; i++ {
		f := marginToProb(z) - p
		d := math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
		if d < 1e-12 {
			break
		}
		z -= f / d
	}
	return z
}

// marginToProb is Φ(z).
func marginToProb(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}
