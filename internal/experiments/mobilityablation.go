package experiments

import (
	"ripple/internal/network"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

// AblationMobility crosses station motion with the route policies that
// can react to it: static positions against random-waypoint and Markov
// place-transition mobility, routed by minimum ETX (recomputed each epoch
// from the moving topology) and by greedy geographic progress (Li et al.,
// the position-aware policy the epoch-world machinery exists for). The
// arena is a pruned 60-station city with two multi-hop paced CBR flows on
// distinct grid rows (the scaling sweep's flow layout), so every cell
// exercises the sparse incremental epoch rebuild; RIPPLE forwarding
// throughout. The static row is the control; the columns compare a
// globally recomputed metric (ETX) against purely local geographic
// forwarding under the same motion — greedy progress needs no global
// recomputation but pays for voids the moving topology opens up.
func AblationMobility(opt Options) (*Table, error) {
	top, p := topology.CityN(60, 3)
	rc := topology.CityRadio()

	// Two flows ≈3 blocks long: genuinely multi-hop routes.
	flows := cityFlows(p, 2, 3, 50*sim.Millisecond)

	mobs := []network.MobilityKind{
		network.MobilityStatic, network.MobilityWaypoint, network.MobilityMarkov,
	}
	pols := []network.RoutePolicyKind{network.RouteETX, network.RouteGeo}
	rows := make([]string, len(mobs))
	for i, m := range mobs {
		rows[i] = m.String()
	}
	cols := make([]string, len(pols))
	for i, p := range pols {
		cols[i] = p.String()
	}
	return tableGrid{
		ID:    "ablation-mobility",
		Title: "Mobility model × route policy, 2 CBR on 60-station city, RIPPLE",
		Unit:  "Mbps total",
		Rows:  rows,
		Cols:  cols,
		Config: func(r, c int) (network.Config, error) {
			return network.Config{
				Positions: top.Positions,
				Radio:     rc,
				Scheme:    network.Ripple,
				Routing:   network.RoutingSpec{Kind: pols[c]},
				Mobility:  network.MobilitySpec{Kind: mobs[r]},
				Flows:     flows,
			}, nil
		},
		Metric: func(_, _ int, res *network.Result) float64 { return res.TotalMbps },
	}.run(opt)
}
