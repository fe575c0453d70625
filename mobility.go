package ripple

import (
	"fmt"
	"strings"

	"ripple/internal/network"
)

// Mobility selects how stations move during a run, mirroring the Routing
// pattern: named models plus chainable options. The zero value is
// StaticMobility(): stations stay at their declared positions and the
// world never changes — bit-identical to a scenario that predates the
// knob.
//
//	ripple.WaypointMobility()                            // random waypoint, 5–15 m/s
//	ripple.WaypointMobility().WithSpeed(1, 3)            // pedestrian
//	ripple.WaypointMobility().WithPause(2 * ripple.Second)
//	ripple.MarkovMobility()                              // place transitions, 90% stay
//	ripple.MarkovMobility().WithStay(0.8).WithPlaces(12)
//	ripple.MarkovMobility().WithEpoch(time250ms).WithSeed(7)
//
// Positions change only at epoch boundaries (default every 500 ms of
// simulated time): the run executes on a precomputed sequence of
// immutable epoch worlds, so results stay bit-identical at any seed-pool
// width or distributed worker count. Trajectories draw from the
// mobility seed (WithSeed, default 1), never from the scenario's run
// seeds, so every seed-run of a scenario sees the same motion. A Mobility
// is the simulator's MobilitySpec, which a run receives as it is.
type Mobility struct{ spec network.MobilitySpec }

// StaticMobility returns the default: no motion. Equivalent to the zero
// Mobility value.
func StaticMobility() Mobility { return Mobility{} }

// WaypointMobility returns the classic random waypoint model: each station
// repeatedly draws a uniform target inside the topology's bounding box and
// a uniform speed (default 5–15 m/s; see WithSpeed), travels there in a
// straight line, optionally pauses (WithPause), and repeats.
func WaypointMobility() Mobility {
	return Mobility{network.MobilitySpec{Kind: network.MobilityWaypoint}}
}

// MarkovMobility returns place-transition mobility: stations hop between a
// fixed set of gathering places (default ≈√N; see WithPlaces) under a
// symmetric Markov chain, staying put each epoch with probability Stay
// (default 0.9; see WithStay). Stations that stay keep bit-identical
// coordinates, which keeps the incremental epoch-world rebuild cheap.
func MarkovMobility() Mobility { return Mobility{network.MobilitySpec{Kind: network.MobilityMarkov}} }

// WithEpoch returns a copy with the epoch length set (default 500 ms):
// the interval between world snapshots, at which positions, link tables
// and routes change.
func (m Mobility) WithEpoch(epoch Time) Mobility {
	m.spec.Epoch = epoch
	return m
}

// WithSeed returns a copy with the trajectory seed set (default 1). It is
// independent of Scenario.Seeds on purpose: motion is part of the world,
// shared by every seed-run.
func (m Mobility) WithSeed(seed uint64) Mobility {
	m.spec.Seed = seed
	return m
}

// WithSpeed returns a copy with the waypoint leg-speed range set, in m/s
// (0 <= min <= max; a min of 0 selects 5 m/s, a max of 0 selects 15 m/s).
// Only valid for WaypointMobility.
func (m Mobility) WithSpeed(min, max float64) Mobility {
	m.spec.MinSpeed, m.spec.MaxSpeed = min, max
	return m
}

// WithPause returns a copy with the waypoint post-arrival pause set. Only
// valid for WaypointMobility.
func (m Mobility) WithPause(pause Time) Mobility {
	m.spec.Pause = pause
	return m
}

// WithPlaces returns a copy with the Markov place count set. Only
// valid for MarkovMobility.
func (m Mobility) WithPlaces(n int) Mobility {
	m.spec.Places = n
	return m
}

// WithStay returns a copy with the Markov per-epoch stay probability set
// (0 < stay < 1). Only valid for MarkovMobility.
func (m Mobility) WithStay(stay float64) Mobility {
	m.spec.Stay = stay
	return m
}

// Active reports whether the mobility makes the world time-varying.
func (m Mobility) Active() bool { return m.spec.Kind != network.MobilityStatic }

// String names the mobility configuration for sweep labels, e.g.
// "waypoint(speed=1-3,pause=2s)" or "markov(stay=0.8,epoch=250ms)".
func (m Mobility) String() string {
	name := m.spec.Kind.String()
	var opts []string
	if m.spec.MinSpeed > 0 || m.spec.MaxSpeed > 0 {
		opts = append(opts, fmt.Sprintf("speed=%g-%g", m.spec.MinSpeed, m.spec.MaxSpeed))
	}
	if m.spec.Pause > 0 {
		opts = append(opts, fmt.Sprintf("pause=%v", m.spec.Pause))
	}
	if m.spec.Places > 0 {
		opts = append(opts, fmt.Sprintf("places=%d", m.spec.Places))
	}
	if m.spec.Stay > 0 {
		opts = append(opts, fmt.Sprintf("stay=%g", m.spec.Stay))
	}
	if m.spec.Epoch > 0 {
		opts = append(opts, fmt.Sprintf("epoch=%v", m.spec.Epoch))
	}
	if m.spec.Seed > 0 {
		opts = append(opts, fmt.Sprintf("seed=%d", m.spec.Seed))
	}
	if len(opts) == 0 {
		return name
	}
	return name + "(" + strings.Join(opts, ",") + ")"
}

// validate rejects an option the selected model would silently ignore (the
// ranges are network.Validate's).
func (m Mobility) validate() error {
	switch {
	case !m.Active() && m != (Mobility{}):
		return fmt.Errorf("ripple: Mobility options need a mobility model (WaypointMobility or MarkovMobility)")
	case (m.spec.MinSpeed != 0 || m.spec.MaxSpeed != 0 || m.spec.Pause != 0) && m.spec.Kind != network.MobilityWaypoint:
		return fmt.Errorf("ripple: Mobility.WithSpeed and WithPause only apply to WaypointMobility (got %s)", m.spec.Kind)
	case (m.spec.Places != 0 || m.spec.Stay != 0) && m.spec.Kind != network.MobilityMarkov:
		return fmt.Errorf("ripple: Mobility.WithPlaces and WithStay only apply to MarkovMobility (got %s)", m.spec.Kind)
	}
	return nil
}
