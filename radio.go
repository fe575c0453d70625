package ripple

import (
	"fmt"
	"strings"

	"ripple/internal/radio"
	"ripple/internal/topology"
)

// Radio describes the wireless environment of a scenario: a named
// propagation profile plus optional overrides. The zero value is
// DefaultRadio(). Build variants by chaining:
//
//	ripple.DefaultRadio().WithBER(1e-5)        // the paper's noisy channel
//	ripple.HiddenRadio()                       // hidden-terminal experiments
//	ripple.IdealRadio()                        // no shadowing, no bit errors
//	ripple.DefaultRadio().WithLowRatePHY()     // 6 Mbps PHY (Table III)
//
// The same Radio drives both route discovery (NewRouter, NewNet) and the
// simulation itself, so the ETX metric and the medium always agree.
type Radio struct {
	profile radioProfile
	// ber overrides the profile's bit error rate when berSet.
	ber     float64
	berSet  bool
	lowRate bool
	// prune overrides the profile's neighbor-pruning cutoff when pruneSet.
	prune    float64
	pruneSet bool
}

// radioPos aliases the simulator's position type for config assembly.
type radioPos = radio.Pos

type radioProfile int

const (
	radioDefault radioProfile = iota
	radioHidden
	radioIdeal
)

// DefaultRadio returns the paper's shadowing model: path-loss exponent 5,
// 8 dB deviation, 281 mW transmit power, ~258 m half-loss range, BER 1e-6.
func DefaultRadio() Radio { return Radio{profile: radioDefault} }

// HiddenRadio narrows carrier sensing (≈1.3× decode range) for the
// hidden-terminal scenarios, as the paper tunes per experiment.
func HiddenRadio() Radio { return Radio{profile: radioHidden} }

// IdealRadio disables shadowing and bit errors (for calibration).
func IdealRadio() Radio { return Radio{profile: radioIdeal} }

// CityRadio returns the profile for city-scale worlds (CityTopology): the
// default propagation model with neighbor pruning tightened to 3 shadowing
// sigmas, which keeps link-plan memory and build time O(N·k) at 10⁴+
// stations for a false-prune probability of ≈1.3e-3 per receiver draw.
func CityRadio() Radio { return DefaultRadio().WithPruneSigma(topology.CityPruneSigma) }

// WithBER returns a copy of the radio with the channel bit error rate set
// (the paper's "clear" channel is 1e-6, "noisy" is 1e-5). It overrides the
// profile's default — including IdealRadio's zero.
func (r Radio) WithBER(ber float64) Radio {
	r.ber = ber
	r.berSet = true
	return r
}

// WithLowRatePHY returns a copy of the radio with both PHY rates switched
// to 6 Mbps (the Table III setting).
func (r Radio) WithLowRatePHY() Radio {
	r.lowRate = true
	return r
}

// WithPruneSigma returns a copy of the radio with the medium's
// neighbor-pruning cutoff set, in shadowing standard deviations: receivers
// whose mean power is more than sigma deviations below the carrier-sense
// threshold are skipped entirely by the transmit fast path. 0 disables
// pruning, reproducing the exact (unpruned) medium bit for bit; the
// profile default of 6 is statistically indistinguishable from it
// (false-prune probability ≈ 1e−9 per receiver per frame) but much faster
// on sparse topologies.
func (r Radio) WithPruneSigma(sigma float64) Radio {
	r.prune = sigma
	r.pruneSet = true
	return r
}

// String names the radio configuration, e.g. "default(ber=1e-05,lowrate)".
func (r Radio) String() string {
	name := map[radioProfile]string{
		radioDefault: "default", radioHidden: "hidden", radioIdeal: "ideal",
	}[r.profile]
	var opts []string
	if r.berSet {
		opts = append(opts, fmt.Sprintf("ber=%g", r.ber))
	}
	if r.lowRate {
		opts = append(opts, "lowrate")
	}
	if r.pruneSet {
		opts = append(opts, fmt.Sprintf("prune=%g", r.prune))
	}
	if len(opts) == 0 {
		return name
	}
	return name + "(" + strings.Join(opts, ",") + ")"
}

// config resolves the profile and overrides into the simulator's radio
// configuration. It is the single profile→config mapping, shared by
// Scenario (the medium) and NewRouter/NewNet (the ETX link model), so the
// two can never disagree — the v1 API zeroed IdealRadio's bit error rate
// in one place but not the other.
func (r Radio) config() (radio.Config, error) {
	var rc radio.Config
	switch r.profile {
	case radioDefault:
		rc = radio.DefaultConfig()
	case radioHidden:
		rc = topology.HiddenRadio()
	case radioIdeal:
		rc = radio.DefaultConfig()
		rc.ShadowSigmaDB = 0
		rc.BitErrorRate = 0
	default:
		return radio.Config{}, fmt.Errorf("ripple: unknown radio profile %d", int(r.profile))
	}
	if r.berSet {
		rc.BitErrorRate = r.ber
	}
	if r.pruneSet {
		rc.PruneSigma = r.prune
	}
	return rc, nil
}
