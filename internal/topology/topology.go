// Package topology provides the station layouts of the paper's evaluation:
// the eight-station multi-flow topology of Fig. 1, the regular- and
// hidden-collision layouts of Fig. 5, line topologies of 2-7 hops (Fig. 7),
// the Wigle access-point topology (Fig. 9), and a Roofnet-like rooftop mesh
// (Fig. 11). Distances are in metres and calibrated against
// radio.DefaultConfig: a 100 m hop loses ≈0.5% of frames, 200 m ≈25%, and
// 300 m ≈65% (see docs/model.md, "Propagation calibration").
package topology

import (
	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/routing"
)

// Hop is the reference hop distance in metres.
const Hop = 100

// Topology is a named set of station positions.
type Topology struct {
	Name      string
	Positions []radio.Pos
}

// Fig1 returns the eight-station topology of Fig. 1. Stations 0-3 form the
// main line (flows 1 and 2 run left to right); station 4 is the alternate
// destination near 3; stations 5-7 host flow 3, which intersects the other
// flows at station 1. The direct 0→3 distance is 300 m, making single-hop
// SPR poor while the 100-150 m relay hops are good — exactly the regime
// opportunistic routing targets.
func Fig1() Topology {
	return Topology{
		Name: "fig1",
		Positions: []radio.Pos{
			0: {X: 0, Y: 0},
			1: {X: 100, Y: 0},
			2: {X: 200, Y: 0},
			3: {X: 300, Y: 0},
			4: {X: 300, Y: 100},
			5: {X: 0, Y: 200},
			6: {X: 100, Y: 150},
			7: {X: 200, Y: 150},
		},
	}
}

// Line returns a straight multi-hop line of hops+1 stations spaced Hop
// apart, with the flow path covering the full line (Fig. 7(a)).
func Line(hops int) (Topology, routing.Path) {
	t := Topology{Name: "line"}
	path := make(routing.Path, hops+1)
	for i := 0; i <= hops; i++ {
		t.Positions = append(t.Positions, radio.Pos{X: float64(i * Hop)})
		path[i] = pktNode(i)
	}
	return t, path
}

// LineWithCross returns the Fig. 7(b) layout: the main line plus a 3-hop
// cross flow intersecting it at the line's middle station.
func LineWithCross(hops int) (Topology, routing.Path, routing.Path) {
	t, main := Line(hops)
	mid := hops / 2
	midX := float64(mid * Hop)
	base := len(t.Positions)
	t.Positions = append(t.Positions,
		radio.Pos{X: midX, Y: Hop},      // cross source
		radio.Pos{X: midX, Y: -Hop},     // cross forwarder 2
		radio.Pos{X: midX, Y: -2 * Hop}, // cross destination
	)
	cross := routing.Path{pktNode(base), pktNode(mid), pktNode(base + 1), pktNode(base + 2)}
	return t, main, cross
}

// Regular returns the Fig. 5(a) layout for the regular-collision
// experiment: nFlows parallel 3-hop flows packed vertically so that every
// station is within carrier-sense range of every other — collisions come
// from contention (same backoff slot), not hidden terminals.
func Regular(nFlows int) (Topology, []routing.Path) {
	t := Topology{Name: "regular"}
	paths := make([]routing.Path, 0, nFlows)
	const rowGap = 30
	for f := 0; f < nFlows; f++ {
		y := float64(f * rowGap)
		base := len(t.Positions)
		for i := 0; i < 4; i++ {
			t.Positions = append(t.Positions, radio.Pos{X: float64(i * Hop), Y: y})
		}
		paths = append(paths, routing.Path{
			pktNode(base), pktNode(base + 1), pktNode(base + 2), pktNode(base + 3),
		})
	}
	return t, paths
}

// HiddenCS is the carrier-sense threshold offset (dB below the decode
// threshold) used for the hidden-terminal layouts; the paper tunes
// carrier/receiving ranges per scenario (§IV-A). A 6 dB offset puts the
// hidden sources outside the main source's carrier-sense range while they
// still corrupt receptions near the main flow's destination.
const HiddenCS = 6

// Hidden returns the Fig. 5(b) layout: flow 1 is a 3-hop line 0→3; the
// sources of the nHidden interferer flows sit beyond carrier-sense range of
// station 0 but within interference range of flow 1's forwarders and
// destination. Returns the topology, flow 1's path, and the hidden paths.
func Hidden(nHidden int) (Topology, routing.Path, []routing.Path) {
	t := Topology{Name: "hidden"}
	for i := 0; i < 4; i++ {
		t.Positions = append(t.Positions, radio.Pos{X: float64(i * Hop)})
	}
	main := routing.Path{0, 1, 2, 3}
	var hidden []routing.Path
	for k := 0; k < nHidden; k++ {
		y := float64((k - nHidden/2) * 40)
		base := len(t.Positions)
		// Hidden sources sit ≈200 m past the destination: far enough that
		// one interferer is capture-protected at flow 1's receivers
		// (≥15 dB below the 100 m signal), close enough that the
		// *aggregate* interference of several simultaneous hidden
		// transmitters corrupts receptions — reproducing Fig. 6(b)'s
		// gradual collapse. They are >490 m from station 0: beyond even
		// the default carrier-sense range, i.e. truly hidden.
		t.Positions = append(t.Positions,
			radio.Pos{X: 500, Y: y}, // hidden source
			radio.Pos{X: 600, Y: y}, // its destination
		)
		hidden = append(hidden, routing.Path{pktNode(base), pktNode(base + 1)})
	}
	return t, main, hidden
}

// HiddenRadio returns the radio configuration used with hidden-terminal
// layouts: default propagation with the carrier-sense threshold raised to
// RXThresh − HiddenCS dB (carrier-sense range ≈ 1.3× decode range).
func HiddenRadio() radio.Config {
	c := radio.DefaultConfig()
	c.CSThreshDBm = c.RXThreshDBm - HiddenCS
	return c
}

func pktNode(i int) pkt.NodeID { return pkt.NodeID(i) }
