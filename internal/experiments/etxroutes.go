package experiments

import (
	"ripple/internal/network"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

// AblationETXRoutes compares the Table II predetermined routes against
// ETX-discovered routes on the Fig. 1 topology (§III-B1: forwarder
// selection is orthogonal to RIPPLE; ExOR/MORE use ETX). Both rows declare
// the ROUTE0 flows; the ETX row routes their endpoints under RouteETX, so
// the world's own link table and policy discover the routes. Both DCF and
// RIPPLE run all three flows.
func AblationETXRoutes(opt Options) (*Table, error) {
	top := topology.Fig1()
	rc := radio.DefaultConfig()
	rc.BitErrorRate = 1e-6
	routes := []network.RoutingSpec{{}, {Kind: network.RouteETX}}
	kinds := []network.SchemeKind{network.DCF, network.Ripple}
	return tableGrid{
		ID:    "ablation-etx",
		Title: "Table II fixed routes vs ETX-discovered routes, 3 TCP flows",
		Unit:  "Mbps total",
		Rows:  []string{"ROUTE0 (fixed)", "ETX-discovered"},
		Cols:  []string{"DCF", "RIPPLE"},
		Config: func(r, c int) (network.Config, error) {
			flows := make([]network.FlowSpec, 0, 3)
			for i, p := range routing.Route0().Flows() {
				flows = append(flows, network.FlowSpec{
					ID: i + 1, Path: p, Kind: network.FTP,
					Start: sim.Time(i) * 100 * sim.Millisecond,
				})
			}
			return network.Config{
				Positions: top.Positions,
				Radio:     rc,
				Scheme:    kinds[c],
				Routing:   routes[r],
				Flows:     flows,
			}, nil
		},
		Metric: func(_, _ int, res *network.Result) float64 { return totalTCP(res) },
	}.run(opt)
}
