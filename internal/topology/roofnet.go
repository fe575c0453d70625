package topology

import (
	"fmt"

	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/routing"
)

// Roofnet returns the Fig. 11 topology: a Roofnet-like rooftop mesh. The
// MIT GPS coordinates file the paper derives Fig. 11 from is not reachable
// offline, so this is a synthetic 30-node layout with the same character:
// an irregular cluster roughly 1.3 km across whose nearest-neighbour links
// are 90-160 m, dense in the core and sparse at the edges, so that 3-5-hop
// source/destination pairs exist (which is all Fig. 12 uses).
func Roofnet() Topology {
	return Topology{
		Name: "roofnet",
		Positions: []radio.Pos{
			{X: 0, Y: 340}, {X: 110, Y: 260}, {X: 90, Y: 440}, {X: 210, Y: 360},
			{X: 230, Y: 180}, {X: 320, Y: 280}, {X: 300, Y: 460}, {X: 420, Y: 380},
			{X: 410, Y: 200}, {X: 390, Y: 540}, {X: 520, Y: 300}, {X: 540, Y: 460},
			{X: 500, Y: 140}, {X: 630, Y: 380}, {X: 610, Y: 220}, {X: 650, Y: 540},
			{X: 730, Y: 300}, {X: 720, Y: 460}, {X: 710, Y: 140}, {X: 840, Y: 380},
			{X: 820, Y: 220}, {X: 850, Y: 540}, {X: 930, Y: 300}, {X: 940, Y: 460},
			{X: 920, Y: 160}, {X: 1040, Y: 380}, {X: 1030, Y: 220}, {X: 1060, Y: 540},
			{X: 1140, Y: 300}, {X: 1240, Y: 360},
		},
	}
}

// RoofnetFlow is one of the Fig. 12 test flows: an ETX-selected path of the
// labelled hop count, e.g. "3(1)" is the first 3-hop example.
type RoofnetFlow struct {
	Label string
	Path  routing.Path
}

// RoofnetPair names the endpoints of one Fig. 12 flow.
type RoofnetPair struct {
	Label    string
	Src, Dst pkt.NodeID
}

// RoofnetPairs are the endpoints of the six Fig. 12 flows, chosen left to
// right across the mesh: two examples each of 3, 4 and 5 ETX hops
// ("transmissions between stations that are 4 or 5 hops apart", plus the
// 3-hop examples the figure labels).
var RoofnetPairs = []RoofnetPair{
	{"3(1)", 0, 8}, {"3(2)", 1, 10},
	{"4(1)", 0, 12}, {"4(2)", 1, 15},
	{"5(1)", 0, 16}, {"5(2)", 1, 21},
}

// RoofnetFlows routes the Fig. 12 flow set, RoofnetPairs, on the ETX
// table. The hidden-terminal pair for the ±hidden variants is returned by
// RoofnetHiddenPair.
func RoofnetFlows(tab *routing.Table) ([]RoofnetFlow, error) {
	flows := make([]RoofnetFlow, 0, len(RoofnetPairs))
	for _, w := range RoofnetPairs {
		p, err := tab.ShortestPath(w.Src, w.Dst)
		if err != nil {
			return nil, fmt.Errorf("topology: roofnet flow %s: %w", w.Label, err)
		}
		flows = append(flows, RoofnetFlow{Label: w.Label, Path: p})
	}
	return flows, nil
}

// RoofnetHiddenPair appends the two hidden-terminal stations used in the
// "with hidden terminals" halves of Fig. 12 and returns their path. They
// sit near the mesh core, outside carrier-sense range of the western flow
// sources (with the HiddenRadio configuration) but within interference
// range of mid-path forwarders.
func RoofnetHiddenPair(t *Topology) routing.Path {
	base := len(t.Positions)
	t.Positions = append(t.Positions,
		radio.Pos{X: 680, Y: 760},
		radio.Pos{X: 580, Y: 700},
	)
	return routing.Path{pkt.NodeID(base), pkt.NodeID(base + 1)}
}
