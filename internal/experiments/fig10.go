package experiments

import "ripple/internal/topology"

// Fig10 regenerates Fig. 10 as four (station pair × scheme) grids:
// per-flow TCP throughput for eight station pairs of the Wigle topology,
// at 6 and 216 Mbps PHY rates, with and without the hidden S→R TCP flow.
func Fig10(opt Options) ([]*Table, error) {
	top, paths, hidden := topology.Wigle()
	labels := make([]string, len(paths))
	for i, p := range paths {
		labels[i] = topology.WigleFlowLabel(p)
	}
	return meshFigure{
		id: "fig10", mesh: "Wigle",
		// The hidden pair is part of the Wigle layout.
		positions: top.Positions, hiddenPositions: top.Positions,
		paths: paths, labels: labels, hidden: hidden,
	}.run(opt)
}
