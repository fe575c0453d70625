// Package mobility generates deterministic station trajectories for
// time-varying worlds. A Model is a sequential stepper: constructed from
// the initial station positions, a configuration and a trajectory seed, it
// advances the whole population one epoch per Step call. Trajectories are
// pure functions of (config, seed, epoch index) — a model draws from its
// own sim.RNG in fixed station order, never from wall clock, goroutine
// identity or scheduling, so two models built from equal inputs produce
// bit-identical positions at every epoch on any goroutine schedule. That
// purity is what lets network.BuildWorld bake a whole campaign's epoch
// worlds ahead of time and share them read-only across pool workers (see
// docs/mobility.md for the determinism contract).
//
// Two classic model families are provided: random waypoint (Waypoint) and
// Markov place-transition mobility (Markov), the latter after the mobile
// peer model of BeanChatP2P. Stations that do not move during an epoch
// keep their exact previous coordinates — bit-equal floats, not merely
// close ones — which is what makes incremental epoch-world rebuilds cheap
// (radio.LinkPlan.Rebuild patches only rows whose endpoints moved).
package mobility

import (
	"ripple/internal/radio"
)

// Model is a deterministic trajectory generator over a fixed station
// population. Step advances every station by one epoch and writes the new
// positions into pos (len(pos) must equal the population size). Models are
// stateful sequential steppers and not safe for concurrent use; share the
// produced position snapshots, not the model.
type Model interface {
	// Name labels the model in tables and flags ("waypoint", "markov").
	Name() string
	// Step advances one epoch and writes every station's position.
	Step(pos []radio.Pos)
}

// Rect is an axis-aligned bounding rectangle in metres. The zero value
// means "derive from the initial positions" (BoundsOf).
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// zero reports whether the rect is the derive-from-positions sentinel.
func (r Rect) zero() bool {
	return r.MinX == 0 && r.MinY == 0 && r.MaxX == 0 && r.MaxY == 0
}

// BoundsOf returns the tight bounding rectangle of the given positions.
// Degenerate rectangles (a line, a point) are legal: models then draw
// targets on that line or point, confining motion to the topology's span.
func BoundsOf(positions []radio.Pos) Rect {
	if len(positions) == 0 {
		return Rect{}
	}
	r := Rect{MinX: positions[0].X, MinY: positions[0].Y, MaxX: positions[0].X, MaxY: positions[0].Y}
	for _, p := range positions[1:] {
		if p.X < r.MinX {
			r.MinX = p.X
		}
		if p.X > r.MaxX {
			r.MaxX = p.X
		}
		if p.Y < r.MinY {
			r.MinY = p.Y
		}
		if p.Y > r.MaxY {
			r.MaxY = p.Y
		}
	}
	return r
}
