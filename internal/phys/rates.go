package phys

import "math"

// The multi-rate extension the paper names as future work (§V: "extend it
// to take advantage of multiple PHY data rates"). A transmitter may pick any
// rate of a ladder; faster rates need a higher SNR, which the radio model
// expresses as a decode threshold raised by SensitivityDB·log10(rate/base)
// dB — calibrated against 802.11a receiver sensitivities (6 Mbps at
// −82 dBm to 54 Mbps at −65 dBm, ≈17.8 dB over a 9× rate span).

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

// rates80211a is the 802.11a/g OFDM rate ladder, ascending.
var rates80211a = []float64{6e6, 9e6, 12e6, 18e6, 24e6, 36e6, 48e6, 54e6}

// ratesWideband is the paper's 216 Mbps configuration scaled across the
// 802.11a ladder (×4, as 4 spatial streams would provide).
var ratesWideband = []float64{24e6, 36e6, 48e6, 72e6, 96e6, 144e6, 192e6, 216e6}

// ladder returns the rates a transmitter under p picks from: the wideband
// ladder above 100 Mbps, the 802.11a one otherwise.
func ladder(p Params) []float64 {
	if p.DataBps > 100e6 {
		return ratesWideband
	}
	return rates80211a
}

// oracleMinProb is the delivery probability the oracle's rate must keep.
const oracleMinProb = 0.9

// OracleRate returns the PHY rate to use toward a receiver whose frame
// delivery probability at p's base rate is baseProb (from the radio model's
// analytic link quality): the fastest rate of p's ladder whose predicted
// delivery probability stays at or above 0.9, the slowest when none does.
// Raising the threshold by Δ dB is equivalent to scaling the link margin, so
// the predicted probability at rate r is Φ(z − Δ(r)/σ), where z is the
// base-rate margin in standard deviations and σ the shadowing deviation in
// dB — the paper's 8 dB unless sigmaDB is positive.
func OracleRate(baseProb, sigmaDB float64, p Params) float64 {
	if sigmaDB <= 0 {
		sigmaDB = 8
	}
	rates := ladder(p)
	best := rates[0]
	z := probToMargin(baseProb)
	for _, r := range rates {
		delta := ThresholdDeltaDB(r, p.DataBps)
		if marginToProb(z-delta/sigmaDB) >= oracleMinProb {
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
	// Newton iteration on Φ(z) − p, starting at the median.
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
	return float64(0.5 * math.Erfc(-z/math.Sqrt2))
}
