package experiments

import (
	"fmt"

	"ripple/internal/network"
	"ripple/internal/radio"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

// loadColumns are the three schemes compared in Figs. 6-8 and Table III.
func loadColumns() []schemeColumn {
	return []schemeColumn{
		{"DCF", network.DCF, false},
		{"AFR", network.AFR, false},
		{"RIPPLE", network.Ripple, false},
	}
}

// Fig6a regenerates Fig. 6(a) as a (flow count × scheme) grid: total
// throughput versus the number of parallel 3-hop TCP flows when every
// station is within carrier-sense range (regular collisions only). BER 1e-6.
func Fig6a(opt Options) (*Table, error) {
	rc := radio.DefaultConfig()
	rc.BitErrorRate = 1e-6
	cols := loadColumns()
	counts := []int{1, 2, 4, 6, 8, 10}
	rows := make([]string, len(counts))
	for i, n := range counts {
		rows[i] = fmt.Sprintf("%d flows", n)
	}
	return tableGrid{
		ID:    "fig6a",
		Title: "Regular collisions: total TCP throughput vs number of flows",
		Unit:  "Mbps total",
		Rows:  rows,
		Cols:  columnLabels(cols),
		Config: func(r, c int) (network.Config, error) {
			n := counts[r]
			top, paths := topology.Regular(n)
			flows := make([]network.FlowSpec, 0, n)
			for i, p := range paths {
				flows = append(flows, network.FlowSpec{
					ID: i + 1, Path: p, Kind: network.FTP,
					Start: sim.Time(i) * 50 * sim.Millisecond,
				})
			}
			return network.Config{
				Positions: top.Positions,
				Radio:     rc,
				Scheme:    cols[c].kind,
				Flows:     flows,
			}, nil
		},
		Metric: func(_, _ int, res *network.Result) float64 { return totalTCP(res) },
	}.run(opt)
}

// Fig6b regenerates Fig. 6(b) as a (hidden count × scheme) grid: flow 1's
// throughput as 0-9 hidden saturated flows are added whose sources cannot
// be carrier-sensed by flow 1's source but do interfere at its forwarders
// and destination. BER 1e-6.
func Fig6b(opt Options) (*Table, error) {
	rc := hiddenRadio()
	cols := loadColumns()
	rows := make([]string, 10)
	for n := range rows {
		rows[n] = fmt.Sprintf("%d hidden", n)
	}
	return tableGrid{
		ID:    "fig6b",
		Title: "Hidden collisions: flow-1 TCP throughput vs number of hidden flows",
		Unit:  "Mbps",
		Rows:  rows,
		Cols:  columnLabels(cols),
		Config: func(r, c int) (network.Config, error) {
			positions, flows := hiddenScenario(r)
			return network.Config{
				Positions: positions,
				Radio:     rc,
				Scheme:    cols[c].kind,
				Flows:     flows,
			}, nil
		},
		Metric: flow0Mbps,
	}.run(opt)
}
