package stats

import "math"

// The paper's VoIP quality model (§IV-E), following Balasubramanian et al.
// (SIGCOMM 2008): an R-factor computed from the mouth-to-ear delay d (ms)
// and total loss rate e (including late arrivals), mapped to the 1-5 Mean
// Opinion Score scale.

// RFactor returns R = 94.2 − 0.024d − 0.11(d−177.3)·H(d−177.3) − 11 −
// 40·log10(1+10e), where H is the unit step.
func RFactor(delayMs, loss float64) float64 {
	r := 94.2 - float64(0.024*delayMs) - 11 - float64(40*math.Log10(1+float64(10*loss)))
	if delayMs > 177.3 {
		r -= float64(0.11 * (delayMs - 177.3))
	}
	return r
}

// MoS maps an R-factor to a Mean Opinion Score: 1 if R < 0, 4.5 if R > 100,
// otherwise 1 + 0.035R + 7·10⁻⁶·R(R−60)(100−R).
func MoS(r float64) float64 {
	switch {
	case r < 0:
		return 1
	case r > 100:
		return 4.5
	default:
		return 1 + float64(0.035*r) + float64(7e-6*r*(r-60)*(100-r))
	}
}

// MoSFrom combines both steps for a measured wireless delay and loss rate.
func MoSFrom(delayMs, loss float64) float64 { return MoS(RFactor(delayMs, loss)) }
