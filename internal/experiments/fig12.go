package experiments

import (
	"ripple/internal/network"
	"ripple/internal/topology"
)

// Fig12 regenerates Fig. 12 as four (station pair × scheme) grids:
// per-flow TCP throughput for ETX-selected 3-5 hop station pairs of the
// Roofnet topology, at 6 and 216 Mbps, with and without a hidden-terminal
// pair near the mesh. Flows run one at a time as in Fig. 10.
func Fig12(opt Options) ([]*Table, error) {
	// The paper's flows are selected on the ETX table of the base mesh.
	base := topology.Roofnet()
	etx, err := network.LinkTable(hiddenRadio(), base.Positions)
	if err != nil {
		return nil, err
	}
	flows, err := topology.RoofnetFlows(etx)
	if err != nil {
		return nil, err
	}
	// The hidden pair is appended to a copy of the topology.
	withHidden := topology.Roofnet()
	hidden := topology.RoofnetHiddenPair(&withHidden)
	m := meshFigure{
		id: "fig12", mesh: "Roofnet",
		positions: base.Positions, hiddenPositions: withHidden.Positions,
		hidden: hidden,
		// Fig. 12 paths reach 5 hops; allow the §IV-C cap.
		maxForwarders: 7,
	}
	for _, f := range flows {
		m.paths = append(m.paths, f.Path)
		m.labels = append(m.labels, f.Label)
	}
	return m.run(opt)
}
