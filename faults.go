package ripple

import (
	"fmt"
	"strings"

	"ripple/internal/fault"
)

// Faults selects deterministic fault injection for a scenario, mirroring
// the Mobility pattern: a constructor plus chainable options. The zero
// value is NoFaults(): nothing fails and the run is bit-identical to one
// that predates the knob.
//
//	ripple.Faults{}                                        // inert
//	ripple.StationChurn(4*ripple.Second, ripple.Second)    // crash/recover
//	ripple.StationChurn(4*ripple.Second, 0).
//		WithLinkFlaps(3).
//		WithNoiseBursts(2).
//		WithPartition(2*ripple.Second, 500*ripple.Millisecond)
//	ripple.LinkFlaps(5).WithSeed(7)
//
// Faults materialise two ways, both inside the deterministic event loop:
// as epoch-world overlays (dead stations and blocked links are removed
// from the epoch's link table and routes, noise penalties raise its
// effective decode threshold) and as in-engine events between epoch
// boundaries (frames to or from a crashed station are not delivered; a
// crashing station releases every packet in its custody). Fault schedules
// draw from the fault seed (WithSeed, default 1), never from the
// scenario's run seeds, so every seed-run of a scenario fails the same
// way — and results stay bit-identical at any seed-pool width or
// distributed worker count.
//
// Graceful degradation rides along whenever faults are active: after a
// configurable number of consecutive failed exchanges (WithThreshold,
// default 3) a flow's preferred forwarder is blacklisted until the next
// epoch's route refresh, and flows whose destination is cut off drop at
// the source, surfaced as Result.Unreachable rather than burnt airtime.
// A Faults is the simulator's fault.Spec, which a run receives as it is.
type Faults struct{ spec fault.Spec }

// NoFaults returns the default: no fault injection. Equivalent to the
// zero Faults value.
func NoFaults() Faults { return Faults{} }

// StationChurn returns fault injection with station crash/recover churn:
// every station that is not a flow endpoint alternates Exp(mtbf) up-time
// and Exp(mttr) down-time (mttr 0 selects 1 s). Flow sources and
// destinations are exempt, so degradation measures relay failures rather
// than trivial endpoint death.
func StationChurn(mtbf, mttr Time) Faults { return Faults{fault.Spec{MTBF: mtbf, MTTR: mttr}} }

// LinkFlaps returns fault injection with n flapping links (see
// WithLinkFlaps).
func LinkFlaps(n int) Faults { return Faults{fault.Spec{FlapLinks: n}} }

// NoiseBursts returns fault injection with n regional noise sources (see
// WithNoiseBursts).
func NoiseBursts(n int) Faults { return Faults{fault.Spec{NoiseBursts: n}} }

// WithStationMTBF returns a copy with station churn enabled: Exp(mtbf)
// up-time, Exp(mttr) down-time per non-endpoint station (mttr 0 selects
// 1 s).
func (f Faults) WithStationMTBF(mtbf, mttr Time) Faults {
	f.spec.MTBF, f.spec.MTTR = mtbf, mttr
	return f
}

// WithLinkFlaps returns a copy that picks n links of the initial neighbor
// graph to flap — Exp(1 s) usable, Exp(250 ms) blocked, repeating. A
// blocked link delivers nothing in either direction but leaves both
// endpoints alive.
func (f Faults) WithLinkFlaps(n int) Faults {
	f.spec.FlapLinks = n
	return f
}

// WithFlapTimes returns a copy with the mean link up/down durations set
// (0 keeps the 1 s / 250 ms defaults).
func (f Faults) WithFlapTimes(up, down Time) Faults {
	f.spec.FlapUp, f.spec.FlapDown = up, down
	return f
}

// WithNoiseBursts returns a copy with n independent regional noise
// sources: each picks a fixed random center, waits Exp(1 s), then
// degrades every reception within 250 m by 20 dB for 200 ms, repeating.
// Tune with WithNoisePenalty.
func (f Faults) WithNoiseBursts(n int) Faults {
	f.spec.NoiseBursts = n
	return f
}

// WithNoisePenalty returns a copy with the burst SNR penalty (dB) and
// coverage radius (metres) set (0 keeps the 20 dB / 250 m defaults).
func (f Faults) WithNoisePenalty(db, radius float64) Faults {
	f.spec.NoisePenaltyDB, f.spec.NoiseRadius = db, radius
	return f
}

// WithPartition returns a copy that blocks every link crossing the
// topology's median-x split during [at, at+dur) — a transient area
// partition.
func (f Faults) WithPartition(at, dur Time) Faults {
	f.spec.PartitionAt, f.spec.PartitionDur = at, dur
	return f
}

// WithThreshold returns a copy with the failure-detection threshold set:
// that many consecutive failed exchanges blacklist a flow's preferred
// forwarder until the next epoch (default 3).
func (f Faults) WithThreshold(n int) Faults {
	f.spec.FailureThreshold = n
	return f
}

// WithEpoch returns a copy with the fault-overlay epoch length set
// (default 500 ms). With a mobility model the fault overlays ride the
// mobility epochs instead, so Validate rejects the combination: set the
// length with Mobility.WithEpoch.
func (f Faults) WithEpoch(epoch Time) Faults {
	f.spec.Epoch = epoch
	return f
}

// WithSeed returns a copy with the fault-schedule seed set (default 1).
// It is independent of Scenario.Seeds on purpose: the failure timeline is
// part of the world, shared by every seed-run.
func (f Faults) WithSeed(seed uint64) Faults {
	f.spec.Seed = seed
	return f
}

// Active reports whether the configuration injects any fault at all.
func (f Faults) Active() bool { return f.spec.Active() }

// String names the fault configuration for sweep labels, e.g.
// "faults(mtbf=4s,flaps=3,seed=7)"; the inert value prints "none".
func (f Faults) String() string {
	var opts []string
	if f.spec.MTBF > 0 {
		opts = append(opts, fmt.Sprintf("mtbf=%v", f.spec.MTBF))
		if f.spec.MTTR > 0 {
			opts = append(opts, fmt.Sprintf("mttr=%v", f.spec.MTTR))
		}
	}
	if f.spec.FlapLinks > 0 {
		opts = append(opts, fmt.Sprintf("flaps=%d", f.spec.FlapLinks))
	}
	if f.spec.NoiseBursts > 0 {
		opts = append(opts, fmt.Sprintf("noise=%d", f.spec.NoiseBursts))
	}
	if f.spec.PartitionDur > 0 {
		opts = append(opts, fmt.Sprintf("partition=%v+%v", f.spec.PartitionAt, f.spec.PartitionDur))
	}
	if f.spec.FailureThreshold > 0 {
		opts = append(opts, fmt.Sprintf("threshold=%d", f.spec.FailureThreshold))
	}
	if f.spec.Epoch > 0 {
		opts = append(opts, fmt.Sprintf("epoch=%v", f.spec.Epoch))
	}
	if f.spec.Seed > 0 {
		opts = append(opts, fmt.Sprintf("seed=%d", f.spec.Seed))
	}
	if len(opts) == 0 {
		return "none"
	}
	return "faults(" + strings.Join(opts, ",") + ")"
}

// validate rejects an option no configured fault process would read (the
// ranges are network.Validate's).
func (f Faults) validate() error {
	switch {
	case !f.Active() && f != (Faults{}):
		return fmt.Errorf("ripple: Faults options need a fault process (station churn, link flaps, noise bursts or a partition)")
	case f.spec.MTTR != 0 && f.spec.MTBF == 0:
		return fmt.Errorf("ripple: Faults: a repair time (MTTR) only applies together with an MTBF")
	}
	return nil
}
