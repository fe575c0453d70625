package mobility

import (
	"ripple/internal/radio"
	"ripple/internal/sim"
)

// WaypointConfig parameterises the random waypoint model.
type WaypointConfig struct {
	// MinSpeed and MaxSpeed bound the per-leg speed draw in m/s. A
	// MaxSpeed of 0 or less freezes every station (useful as a degenerate
	// baseline). MinSpeed defaults to MaxSpeed when unset.
	MinSpeed, MaxSpeed float64
	// Pause is how long a station rests after reaching a waypoint before
	// drawing the next leg.
	Pause sim.Time
	// Epoch is the simulated time one Step call advances.
	Epoch sim.Time
	// Bounds confines waypoints; the zero rect derives the tight bounding
	// box of the initial positions.
	Bounds Rect
}

// wpState is one station's leg: where it is, where it is headed, how fast,
// and how much post-arrival pause remains.
type wpState struct {
	cur, target radio.Pos
	speed       float64 // m/s; 0 = frozen
	pauseLeft   sim.Time
}

// Waypoint is the classic random waypoint model: each station repeatedly
// draws a uniform target in the bounding rectangle and a uniform speed in
// [MinSpeed, MaxSpeed], travels there in a straight line, pauses, and
// repeats. Stations that spend a whole epoch paused (or have zero speed)
// keep bit-identical coordinates across the step.
type Waypoint struct {
	cfg WaypointConfig
	rng *sim.RNG
	sts []wpState
}

// NewWaypoint builds a waypoint model over the initial positions. The
// trajectory is a pure function of (initial, cfg, seed).
func NewWaypoint(initial []radio.Pos, cfg WaypointConfig, seed uint64) *Waypoint {
	if cfg.Bounds.zero() {
		cfg.Bounds = BoundsOf(initial)
	}
	if cfg.MinSpeed <= 0 || cfg.MinSpeed > cfg.MaxSpeed {
		cfg.MinSpeed = cfg.MaxSpeed
	}
	w := &Waypoint{cfg: cfg, rng: sim.NewRNG(seed, 0), sts: make([]wpState, len(initial))}
	for i, p := range initial {
		s := &w.sts[i]
		s.cur = p
		if cfg.MaxSpeed > 0 {
			s.target, s.speed = w.drawLeg()
		}
	}
	return w
}

// Name implements Model.
func (w *Waypoint) Name() string { return "waypoint" }

// drawLeg draws the next waypoint and leg speed. Draw order (X, Y, speed)
// is part of the determinism contract: it fixes the RNG stream layout.
func (w *Waypoint) drawLeg() (radio.Pos, float64) {
	b := w.cfg.Bounds
	p := radio.Pos{
		X: b.MinX + float64((b.MaxX-b.MinX)*w.rng.Float64()),
		Y: b.MinY + float64((b.MaxY-b.MinY)*w.rng.Float64()),
	}
	v := w.cfg.MinSpeed + float64((w.cfg.MaxSpeed-w.cfg.MinSpeed)*w.rng.Float64())
	return p, v
}

// Step implements Model: every station advances by Epoch, in station
// order, consuming RNG draws sequentially.
func (w *Waypoint) Step(pos []radio.Pos) {
	for i := range w.sts {
		w.advance(&w.sts[i])
		pos[i] = w.sts[i].cur
	}
}

// advance moves one station through one epoch of simulated time,
// alternating travel legs and pauses until the epoch is spent.
func (w *Waypoint) advance(s *wpState) {
	if s.speed <= 0 {
		return // frozen station: exact coordinates forever
	}
	left := w.cfg.Epoch
	for left > 0 {
		if s.pauseLeft > 0 {
			if s.pauseLeft >= left {
				s.pauseLeft -= left
				return // rested through the rest of the epoch: position untouched
			}
			left -= s.pauseLeft
			s.pauseLeft = 0
		}
		dx, dy := s.target.X-s.cur.X, s.target.Y-s.cur.Y
		d := radio.Dist(s.cur, s.target)
		travel := s.speed * left.Seconds()
		if travel < d {
			// The leg outlasts the epoch: move partway and stop here.
			f := travel / d
			s.cur.X += float64(dx * f)
			s.cur.Y += float64(dy * f)
			return
		}
		// Reach the waypoint inside the epoch: land exactly on it, consume
		// the travel time (at least 1 ns, so degenerate zero-length legs
		// cannot spin), pause, then draw the next leg.
		s.cur = s.target
		dt := sim.Time(d / s.speed * float64(sim.Second))
		if dt <= 0 {
			dt = 1
		}
		if dt > left {
			dt = left
		}
		left -= dt
		s.pauseLeft = w.cfg.Pause
		s.target, s.speed = w.drawLeg()
	}
}
