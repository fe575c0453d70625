package sim

import (
	"math"
	"math/rand/v2"
)

// RNG wraps a seeded PCG pseudo-random source with the handful of draws the
// simulator needs. Every stochastic component (radio shadowing, MAC backoff,
// traffic generators) owns its own RNG substream so that adding draws to one
// component does not perturb another — runs stay comparable across code
// changes and across schemes under test.
//
// The zero value is unseeded: call Seed first. The generator draws from its
// own source field, so a seeded RNG must not be copied; Seed on the copy's
// address makes it whole again.
type RNG struct {
	src rand.PCG
	r   rand.Rand // over &src
}

// NewRNG returns a deterministic generator for the given seed and stream
// identifier. Distinct streams with the same seed are independent.
func NewRNG(seed uint64, stream uint64) *RNG {
	g := &RNG{}
	g.Seed(seed, stream)
	return g
}

// Seed restarts the generator, in place, on the sequence NewRNG(seed,
// stream) produces: a run arena reseeds the generators it keeps.
func (g *RNG) Seed(seed uint64, stream uint64) {
	// Mix the stream into both PCG words so streams are decorrelated.
	g.src.Seed(seed^0x9e3779b97f4a7c15*stream, stream*0xda942042e4dd58b5+seed)
	g.r = *rand.New(&g.src)
}

// IntN returns a uniform integer in [0, n). n must be > 0.
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Float64 returns a uniform float in [0, 1). The conversion rounds the
// draw's own scaling product, so no caller's arithmetic fuses with it.
func (g *RNG) Float64() float64 { return float64(g.r.Float64()) }

// Norm returns a normally distributed value with the given mean and standard
// deviation.
func (g *RNG) Norm(mean, stddev float64) float64 {
	return mean + float64(stddev*g.r.NormFloat64())
}

// Exp returns an exponentially distributed value with the given mean.
func (g *RNG) Exp(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// Pareto returns a Pareto-distributed value with the given shape and scale
// (minimum). The mean, for shape > 1, is scale*shape/(shape-1).
func (g *RNG) Pareto(shape, scale float64) float64 {
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	return scale / math.Pow(u, 1/shape)
}

// ParetoWithMean returns a Pareto draw parameterised by its mean rather than
// its scale, matching how the paper specifies web transfer sizes
// ("mean 80KB and shape parameter 1.5").
func (g *RNG) ParetoWithMean(shape, mean float64) float64 {
	scale := mean * (shape - 1) / shape
	return g.Pareto(shape, scale)
}
