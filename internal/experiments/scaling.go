package experiments

import (
	"fmt"

	"ripple/internal/network"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

// Scaling is the city-scale sweep the sparse world path exists for: CBR
// meshes on jittered block-grid cities from 1 000 to 20 000 stations, ETX
// routing over the sparse link table. It is not a figure from the paper —
// the paper's scenarios stop at tens of stations — but the regime its
// scaling arguments (and the related Parallel Opportunistic Routing
// literature) speak to. Each row is one world; the columns are metrics of
// that single run, so the table doubles as an end-to-end exercise of
// sparse world construction at every N.
//
// Not in All(): a 20k-station row costs minutes, not seconds, and would
// dominate every default regeneration. cmd/experiments exposes it behind
// the -scaling flag.
func Scaling(opt Options) (*Table, error) {
	sizes := []int{1000, 2000, 5000, 10000, 20000}
	rows := make([]string, len(sizes))
	for i, n := range sizes {
		rows[i] = fmt.Sprintf("N=%d", n)
	}
	// City runs meter steady-state forwarding, not long-run averages: per
	// second each CBR source emits only 50 packets, so 1 s already gives
	// every flow hundreds of delivery samples while keeping the 20k row
	// tractable. Longer -dur values are therefore capped here.
	opt = opt.normalize()
	if opt.Duration > sim.Second {
		opt.Duration = sim.Second
	}
	return tableGrid{
		ID:     "scaling",
		Title:  "City-scale CBR mesh sweep (jittered block grid, sparse ETX routing)",
		Rows:   rows,
		Cols:   []string{"Mbps total", "delay ms", "delivered"},
		PerRow: true,
		Config: func(r, _ int) (network.Config, error) {
			return cityConfig(sizes[r])
		},
		Metric: func(_, c int, res *network.Result) float64 {
			switch c {
			case 0:
				return res.TotalMbps
			case 1:
				var sum float64
				for _, f := range res.Flows {
					sum += float64(f.MeanDelay.Milliseconds())
				}
				return sum / float64(len(res.Flows))
			default:
				var sum float64
				for _, f := range res.Flows {
					sum += float64(f.PktsDelivered)
				}
				return sum
			}
		},
	}.run(opt)
}

// cityConfig builds the scaling scenario for one city size: an n-station
// jittered block grid under the city radio profile (PruneSigma 3), RIPPLE
// forwarding, ETX routes resolved from endpoint pairs, and one paced CBR
// flow per ~500 stations (at least four), each ≈5 blocks ≈ 750 m long — a
// genuinely multi-hop route — so offered load grows with the city instead
// of saturating it.
func cityConfig(n int) (network.Config, error) {
	top, p := topology.CityN(n, 7)
	return network.Config{
		Positions: top.Positions,
		Radio:     topology.CityRadio(),
		Scheme:    network.Ripple,
		Flows:     cityFlows(p, max(n/500, 4), 5, 0),
		Routing:   network.RoutingSpec{Kind: network.RouteETX},
	}, nil
}

// ScalingRunners returns the opt-in city-scale experiments (cmd/experiments
// -scaling); kept out of All() because of their runtime.
func ScalingRunners() []Runner {
	return []Runner{
		{"scaling", func(o Options) ([]*Table, error) { t, err := Scaling(o); return wrap(t, err) }},
	}
}
