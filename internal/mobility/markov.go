package mobility

import (
	"math"

	"ripple/internal/radio"
	"ripple/internal/sim"
)

// MarkovConfig parameterises the Markov place-transition model.
type MarkovConfig struct {
	// Places is the number of gathering places scattered uniformly over
	// the bounds (0 selects max(4, round(sqrt(N))) for N stations).
	Places int
	// Stay is the per-epoch probability that a station remains at its
	// current place (0 selects 0.9). The complement is split uniformly
	// across the other places.
	Stay float64
	// JitterRadius is the per-station fixed offset radius around a place
	// in metres, so co-located stations do not stack on one point
	// (0 selects 10 m).
	JitterRadius float64
	// Bounds confines places; the zero rect derives the tight bounding
	// box of the initial positions.
	Bounds Rect
}

// Markov is place-transition mobility after BeanChatP2P's mobile peer
// model: the world has a fixed set of places, and each epoch every station
// either stays where it is (probability Stay) or hops to another place
// chosen uniformly — a symmetric Markov chain over places. Each station
// carries a fixed positional jitter so a place holds a small cluster
// rather than a point. A station that stays keeps bit-identical
// coordinates, so with a high Stay probability most link-plan rows survive
// an epoch untouched — the regime the incremental world rebuild exploits.
type Markov struct {
	cfg    MarkovConfig
	rng    *sim.RNG
	places []radio.Pos
	offset []radio.Pos // per-station jitter, drawn once
	at     []int32     // current place per station; -1 = still at its initial position
	pos    []radio.Pos
}

// NewMarkov builds a place-transition model over the initial positions.
// The trajectory is a pure function of (initial, cfg, seed).
func NewMarkov(initial []radio.Pos, cfg MarkovConfig, seed uint64) *Markov {
	if cfg.Bounds.zero() {
		cfg.Bounds = BoundsOf(initial)
	}
	if cfg.Places <= 0 {
		cfg.Places = int(math.Round(math.Sqrt(float64(len(initial)))))
		if cfg.Places < 4 {
			cfg.Places = 4
		}
	}
	if cfg.Stay <= 0 || cfg.Stay >= 1 {
		cfg.Stay = 0.9
	}
	if cfg.JitterRadius <= 0 {
		cfg.JitterRadius = 10
	}
	m := &Markov{
		cfg:    cfg,
		rng:    sim.NewRNG(seed, 0),
		places: make([]radio.Pos, cfg.Places),
		offset: make([]radio.Pos, len(initial)),
		at:     make([]int32, len(initial)),
		pos:    append([]radio.Pos(nil), initial...),
	}
	b := cfg.Bounds
	for i := range m.places {
		m.places[i] = radio.Pos{
			X: b.MinX + float64((b.MaxX-b.MinX)*m.rng.Float64()),
			Y: b.MinY + float64((b.MaxY-b.MinY)*m.rng.Float64()),
		}
	}
	for i := range m.offset {
		m.offset[i] = radio.Pos{
			X: (2*m.rng.Float64() - 1) * cfg.JitterRadius,
			Y: (2*m.rng.Float64() - 1) * cfg.JitterRadius,
		}
		// A station starts at its scenario position, which is generally not
		// a place; -1 marks "not yet hopped", so stay-draws keep the exact
		// initial coordinates until the first transition.
		m.at[i] = -1
	}
	return m
}

// Name implements Model.
func (m *Markov) Name() string { return "markov" }

// Step implements Model: one transition draw per station, in station
// order; movers additionally draw their destination place.
func (m *Markov) Step(pos []radio.Pos) {
	for i := range m.pos {
		if m.rng.Float64() >= m.cfg.Stay {
			m.hop(i)
		}
		pos[i] = m.pos[i]
	}
}

// hop moves station i to a uniformly chosen place other than its current
// one and plants it at place + jitter.
func (m *Markov) hop(i int) {
	var next int32
	if m.at[i] < 0 {
		next = int32(m.rng.IntN(len(m.places)))
	} else {
		next = int32(m.rng.IntN(len(m.places) - 1))
		if next >= m.at[i] {
			next++
		}
	}
	m.at[i] = next
	m.pos[i] = radio.Pos{
		X: m.places[next].X + m.offset[i].X,
		Y: m.places[next].Y + m.offset[i].Y,
	}
}
