package network

import (
	"fmt"
	"runtime/debug"

	"ripple/internal/mobility"
	"ripple/internal/radio"
	"ripple/internal/sim"
)

// MobilityKind selects a station mobility model for time-varying worlds.
type MobilityKind int

const (
	// MobilityStatic keeps every station at its declared position for the
	// whole run — the pre-mobility behaviour, and the default.
	MobilityStatic MobilityKind = iota
	// MobilityWaypoint is the classic random waypoint model: straight legs
	// to uniform targets at uniform speeds, with optional pauses.
	MobilityWaypoint
	// MobilityMarkov is place-transition mobility: stations hop between a
	// fixed set of gathering places under a symmetric Markov chain.
	MobilityMarkov
)

// String names the kind for sweep labels and flags.
func (k MobilityKind) String() string {
	switch k {
	case MobilityStatic:
		return "static"
	case MobilityWaypoint:
		return "waypoint"
	case MobilityMarkov:
		return "markov"
	default:
		return fmt.Sprintf("MobilityKind(%d)", int(k))
	}
}

// DefaultMobilityEpoch is the default epoch length of a time-varying
// world. It matches DefaultRouteEpoch so that, under dynamic routing, a
// topology change and the re-route that reacts to it land on the same
// boundary (the swap is scheduled first).
const DefaultMobilityEpoch = 500 * sim.Millisecond

// MobilitySpec configures station motion. The zero value is
// MobilityStatic: no motion, no epoch worlds, bit-identical behaviour to
// a config without the field.
type MobilitySpec struct {
	Kind MobilityKind
	// Epoch is the interval between world snapshots (0 selects
	// DefaultMobilityEpoch). Positions change only at epoch boundaries:
	// within an epoch the world is as immutable as a static one.
	Epoch sim.Time
	// Seed drives the trajectories. It is deliberately separate from
	// Config.Seed — worlds must stay seed-independent so one World serves
	// every seed-run of a campaign cell — and 0 selects 1.
	Seed uint64
	// MinSpeed and MaxSpeed bound waypoint leg speeds in m/s (both 0
	// selects 5–15 m/s, vehicular-pedestrian mix).
	MinSpeed, MaxSpeed float64
	// Pause is the waypoint post-arrival rest time.
	Pause sim.Time
	// Places is the Markov model's number of gathering places (0 derives
	// one from the population size).
	Places int
	// Stay is the Markov per-epoch stay probability (0 selects 0.9).
	Stay float64
}

// active reports whether the spec produces motion at all.
func (s MobilitySpec) active() bool { return s.Kind != MobilityStatic }

// check passes the first field out of range to bad — its name, its value
// and the rule it breaks — and returns bad's error, or nil. The rules hold
// whatever the kind: the options a kind ignores are the public API's
// concern (ripple.Scenario.Validate), not a range.
func (s MobilitySpec) check(bad func(field string, value any, rule string) error) error {
	const rule = "must not be negative"
	switch {
	case s.Kind != MobilityStatic && s.Kind != MobilityWaypoint && s.Kind != MobilityMarkov:
		return bad("Kind", s.Kind, "unknown mobility kind")
	case s.Epoch < 0:
		return bad("Epoch", s.Epoch, rule)
	case !(s.MinSpeed >= 0 && s.MaxSpeed >= 0 && (s.MaxSpeed == 0 || s.MinSpeed <= s.MaxSpeed)):
		// One rule over two fields (a max of 0 selects the default): the
		// value is the pair.
		field := "MinSpeed"
		if !(s.MaxSpeed >= 0) {
			field = "MaxSpeed"
		}
		return bad(field, fmt.Sprintf("%g, %g", s.MinSpeed, s.MaxSpeed), "wants 0 <= min <= max")
	case s.Pause < 0:
		return bad("Pause", s.Pause, rule)
	case s.Places < 0:
		return bad("Places", s.Places, rule)
	case !(s.Stay >= 0 && s.Stay < 1):
		return bad("Stay", s.Stay, "wants a probability with 0 < stay < 1")
	}
	return nil
}

// epochLen resolves the epoch length.
func (s MobilitySpec) epochLen() sim.Time {
	if s.Epoch > 0 {
		return s.Epoch
	}
	return DefaultMobilityEpoch
}

// seed resolves the trajectory seed.
func (s MobilitySpec) seed() uint64 {
	if s.Seed != 0 {
		return s.Seed
	}
	return 1
}

// model builds the trajectory stepper over the initial positions.
func (s MobilitySpec) model(initial []radio.Pos) (mobility.Model, error) {
	switch s.Kind {
	case MobilityWaypoint:
		minS, maxS := s.MinSpeed, s.MaxSpeed
		if maxS <= 0 {
			maxS = 15
		}
		if minS <= 0 {
			minS = 5
		}
		if minS > maxS {
			minS = maxS
		}
		return mobility.NewWaypoint(initial, mobility.WaypointConfig{
			MinSpeed: minS,
			MaxSpeed: maxS,
			Pause:    s.Pause,
			Epoch:    s.epochLen(),
		}, s.seed()), nil
	case MobilityMarkov:
		return mobility.NewMarkov(initial, mobility.MarkovConfig{
			Places: s.Places,
			Stay:   s.Stay,
		}, s.seed()), nil
	default:
		return nil, fmt.Errorf("network: unknown mobility kind %d", int(s.Kind))
	}
}

// buildEpochs extends a freshly built initial World with its epoch
// sequence, continuing the lineage derive left at the root: one derived
// World per epoch boundary strictly inside
// (0, Duration). Each epoch world is derived incrementally from its
// predecessor (see derive) — the link plan by radio's row-patching Rebuild,
// the clean link table by routing.RebuildSparseTableSym — so on a city-scale
// world with most stations parked, the per-epoch cost is proportional to
// the motion, not the population. With fault injection, epochs under a
// fault overlay route on a masked link table (dead stations and blocked
// links removed, noise penalties applied), a filter of the clean one the
// lineage carries on to the next epoch; a world keeps its table only under
// a dynamic policy, and the lineage builds the next tables over the arrays
// of those it does not keep; consecutive epochs with
// identical positions and fault toggle counts share one World. Like
// everything else in the World, the sequence is a pure function of the
// Config's non-seed fields (the trajectory seed lives in MobilitySpec,
// the fault seed in FaultSpec, never Config.Seed).
//
// The work is a two-stage pipeline. One goroutine steps the mobility model
// and rebuilds the plan chain, each plan from the one before; the caller
// derives each epoch's world — table patch, fault mask, routes — as its
// plan arrives. Each stage is sequential in itself and a plan is immutable
// once sent, so the worlds are those a single goroutine would build.
// buildEpochs returns only after the plan goroutine has, on every path.
func (w *World) buildEpochs(cfg *Config, ln *lineage) error {
	var model mobility.Model
	if cfg.Mobility.active() {
		m, err := cfg.Mobility.model(cfg.Positions)
		if err != nil {
			return err
		}
		model = m
	}
	w.epochLen = epochLenFor(cfg)
	n := int((cfg.Duration - 1) / w.epochLen)
	if n <= 0 {
		return nil
	}
	// The channel holds every plan, so the plan goroutine never blocks on a
	// caller that has stopped reading; the worlds keep every plan anyway. A
	// panic of the plan goroutine closes the channel early and is raised
	// again here, with that goroutine's stack, once it has returned, so it
	// reaches the caller's recover as a serial build's would.
	plans := make(chan *radio.LinkPlan, n)
	stop := make(chan struct{})
	var crash any
	go func() {
		defer close(plans)
		defer func() {
			if r := recover(); r != nil {
				crash = fmt.Sprintf("%v\n\n%s", r, debug.Stack())
			}
		}()
		pos := append([]radio.Pos(nil), cfg.Positions...)
		plan := w.plan
		for range n {
			select {
			case <-stop:
				return
			default:
			}
			if model != nil {
				model.Step(pos)
			}
			plan = plan.Rebuild(pos)
			plans <- plan
		}
	}()
	defer func() {
		close(stop)
		for range plans {
		}
		if crash != nil {
			panic(crash)
		}
	}()

	ln.faults = w.faults
	if w.faults != nil {
		ln.counts = w.faults.ToggleCounts(0, nil)
	}
	w.epochs = make([]*World, 0, n)
	for e := 0; e < n; e++ {
		plan, ok := <-plans
		if !ok {
			return nil // the plan goroutine panicked; the drain raises it
		}
		ew, err := derive(cfg, ln, plan, sim.Time(e+1)*w.epochLen)
		if err != nil {
			return err
		}
		w.epochs = append(w.epochs, ew)
	}
	return nil
}

// Epochs returns the number of epoch worlds beyond the initial snapshot
// (0 for a static world).
func (w *World) Epochs() int { return len(w.epochs) }

// EpochLen returns the epoch length of a time-varying world (0 for a
// static one).
func (w *World) EpochLen() sim.Time { return w.epochLen }
