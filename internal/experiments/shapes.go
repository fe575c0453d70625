package experiments

import (
	"ripple/internal/network"
	"ripple/internal/phys"
	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

// Scenario shapes that more than one driver declares, each written once.

// hiddenRadio is the hidden-terminal radio profile at BER 1e-6: the channel
// of Fig. 6(b), of the mesh figures and of the ablations on either.
func hiddenRadio() radio.Config {
	rc := topology.HiddenRadio()
	rc.BitErrorRate = 1e-6
	return rc
}

// meshFigure declares Fig. 10 and Fig. 12, which share one shape: per-flow
// TCP throughput of a mesh's station pairs, each pair run on its own as in
// the paper's per-flow bars, in four (station pair × scheme) grids — 6 and
// 216 Mbps, each without and with a hidden TCP flow that starts at 30 ms.
type meshFigure struct {
	id, mesh string // table ID stem ("fig10") and topology name in titles
	// positions are the mesh's stations; hiddenPositions are the stations
	// of the variants with the hidden flow.
	positions, hiddenPositions []radio.Pos
	paths                      []routing.Path
	labels                     []string // one row label per path
	hidden                     routing.Path
	maxForwarders              int // 0 keeps the default
}

func (m meshFigure) run(opt Options) ([]*Table, error) {
	rc := hiddenRadio()
	cols := loadColumns()
	var out []*Table
	for i, v := range []struct{ lowRate, hidden bool }{
		{true, false}, {true, true}, {false, false}, {false, true},
	} {
		rate, positions := "216 Mbps", m.positions
		if v.lowRate {
			rate = "6 Mbps"
		}
		title := m.mesh + " topology per-flow TCP throughput, " + rate
		if v.hidden {
			title += ", with hidden terminals"
			positions = m.hiddenPositions
		}
		t, err := tableGrid{
			ID: m.id + string(rune('a'+i)), Title: title, Unit: "Mbps",
			Rows: m.labels,
			Cols: columnLabels(cols),
			Config: func(r, c int) (network.Config, error) {
				specs := []network.FlowSpec{{ID: 1, Path: m.paths[r], Kind: network.FTP}}
				if v.hidden {
					specs = append(specs, network.FlowSpec{
						ID: 2, Path: m.hidden, Kind: network.FTP,
						Start: 30 * sim.Millisecond,
					})
				}
				cfg := network.Config{
					Positions:     positions,
					Radio:         rc,
					Scheme:        cols[c].kind,
					Flows:         specs,
					MaxForwarders: m.maxForwarders,
				}
				if v.lowRate {
					cfg.Phy = phys.LowRate()
				}
				return cfg, nil
			},
			Metric: flow0Mbps,
		}.run(opt)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// hiddenScenario is the hidden-terminal arena of Fig. 6(b) with n hidden
// flows: flow 1 is an FTP flow along the main path, and each hidden path
// carries a saturated CBR interferer from 50 ms.
func hiddenScenario(n int) ([]radio.Pos, []network.FlowSpec) {
	top, main, hidden := topology.Hidden(n)
	flows := []network.FlowSpec{{ID: 1, Path: main, Kind: network.FTP}}
	for i, p := range hidden {
		flows = append(flows, network.FlowSpec{
			ID: i + 2, Path: p, Kind: network.CBRTraffic,
			Start: 50 * sim.Millisecond,
		})
	}
	return top.Positions, flows
}

// cityFlows lays n paced CBR flows (one 1000-byte packet per 20 ms) over a
// block-grid city: flow i runs span blocks (at most Cols−1) along grid row
// i·Rows/n from column 3i mod (Cols−span), and starts i·stagger into the
// run. Distinct rows and staggered columns tile the city instead of piling
// the flows onto one corridor. The layout is a pure function of its
// arguments, so rerunning a row is deterministic.
func cityFlows(p topology.CityParams, n, span int, stagger sim.Time) []network.FlowSpec {
	span = min(span, p.Cols-1)
	flows := make([]network.FlowSpec, n)
	for i := range flows {
		gr := (i * p.Rows) / n
		sc := (i * 3) % (p.Cols - span)
		src := pkt.NodeID(gr*p.Cols + sc)
		flows[i] = network.FlowSpec{
			ID:             i + 1,
			Path:           routing.Path{src, src + pkt.NodeID(span)},
			Kind:           network.CBRTraffic,
			CBRInterval:    20 * sim.Millisecond,
			CBRPacketBytes: 1000,
			Start:          sim.Time(i) * stagger,
		}
	}
	return flows
}
