package topology

import (
	"fmt"

	"ripple/internal/radio"
	"ripple/internal/sim"
)

// This file provides the city-scale random-geometric topology the sparse
// link plan exists for: thousands to tens of thousands of stations laid
// out as a jittered block grid, the regime of the scaling-law experiments
// in Shin/Chung/Lee, "Parallel Opportunistic Routing in Wireless
// Networks" (throughput/delay vs N on 1k–20k-node topologies).

const (
	// CitySpacing is the default block pitch in metres. At 150 m a
	// station's four grid neighbors sit well inside the ≈258 m default
	// decode range even at maximum jitter, so the mesh is connected by
	// construction and ETX routing always finds a path.
	CitySpacing = 150
	// CityJitter is the default maximum per-axis perturbation in metres.
	// 40 m keeps the worst-case adjacent-station distance at
	// √((150+80)² + 80²) ≈ 244 m < 258 m while breaking the regular
	// grid's degenerate equal-distance ties.
	CityJitter = 40
	// CityPruneSigma is the neighbor-pruning cutoff CityRadio applies, in
	// shadowing deviations. The default 6σ cutoff keeps every station
	// within ≈4.3 km as a neighbor — ~2 500 stations at city density,
	// which defeats the point of a sparse plan. 3σ shrinks the pruning
	// radius to ≈1.4 km (~280 neighbors) at a false-prune probability of
	// Φ(−3) ≈ 1.3·10⁻³ per draw: a frame is very occasionally not sensed
	// by a station ~5 decode-ranges away that would have drawn an extreme
	// shadowing sample. That is invisible in delivery/delay statistics
	// but an order of magnitude in memory and build time at N = 20k.
	CityPruneSigma = 3
)

// CityParams parameterises the random-geometric city mesh.
type CityParams struct {
	// Rows and Cols give the block grid dimensions; stations are laid out
	// row-major, so station r*Cols+c sits near (c*Spacing, r*Spacing).
	Rows, Cols int
	// Spacing is the block pitch in metres (0 selects CitySpacing).
	Spacing float64
	// Jitter is the maximum uniform per-axis perturbation in metres
	// (negative selects CityJitter; 0 is an exact grid).
	Jitter float64
	// Seed drives the deterministic jitter draw: equal params produce
	// bit-identical topologies.
	Seed uint64
}

func (p CityParams) normalize() CityParams {
	if p.Spacing == 0 {
		p.Spacing = CitySpacing
	}
	if p.Jitter < 0 {
		p.Jitter = CityJitter
	}
	return p
}

// City returns the jittered block-grid city mesh for the given parameters.
// The layout is a pure function of the parameters: positions come from a
// dedicated RNG stream seeded by p.Seed, so topologies are reproducible
// across runs and machines.
func City(p CityParams) Topology {
	p = p.normalize()
	rng := sim.NewRNG(p.Seed, 0xC17F)
	t := Topology{
		Name:      fmt.Sprintf("city-%dx%d", p.Rows, p.Cols),
		Positions: make([]radio.Pos, 0, p.Rows*p.Cols),
	}
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			t.Positions = append(t.Positions, radio.Pos{
				X: float64(float64(c)*p.Spacing) + float64((rng.Float64()*2-1)*p.Jitter),
				Y: float64(float64(r)*p.Spacing) + float64((rng.Float64()*2-1)*p.Jitter),
			})
		}
	}
	return t
}

// CityN returns a near-square city of at least n stations with the default
// spacing and jitter, plus the resolved parameters (callers use Rows/Cols
// to pick flow endpoints on the block grid). The station count is rounded
// up to the next full Rows×Cols rectangle so every row is complete.
func CityN(n int, seed uint64) (Topology, CityParams) {
	cols := 1
	for cols*cols < n {
		cols++
	}
	rows := (n + cols - 1) / cols
	p := CityParams{Rows: rows, Cols: cols, Spacing: CitySpacing, Jitter: CityJitter, Seed: seed}
	return City(p), p
}

// CityRadio returns the radio configuration for city-scale worlds: the
// paper's propagation model with the neighbor-pruning cutoff tightened to
// CityPruneSigma (see that constant for the fidelity/footprint tradeoff).
func CityRadio() radio.Config {
	c := radio.DefaultConfig()
	c.PruneSigma = CityPruneSigma
	return c
}
