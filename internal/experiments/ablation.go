package experiments

import (
	"fmt"

	"ripple/internal/core"
	"ripple/internal/network"
	"ripple/internal/phys"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/topology"
)

// The ablations isolate the design choices docs/model.md lists. They are
// not figures from the paper; they quantify the mechanisms the paper argues
// for (aggregation limit 16, ≤5 forwarders, Rq, two-way aggregation) and
// the §V future-work multi-rate extension. Like the figures, each is a
// campaign grid declaration.

// AblationAggLimit sweeps RIPPLE's aggregation limit over a single
// long-lived TCP flow on the Fig. 1 topology (ROUTE0). The paper picks 16
// following 802.11n/AFR; the sweep shows the diminishing returns beyond it.
func AblationAggLimit(opt Options) (*Table, error) {
	top := topology.Fig1()
	rc := radio.DefaultConfig()
	rc.BitErrorRate = 1e-6
	path := routing.Route0().Flow1
	aggs := []int{1, 2, 4, 8, 16, 32}
	rows := make([]string, len(aggs))
	for i, agg := range aggs {
		rows[i] = fmt.Sprintf("agg=%d", agg)
	}
	return tableGrid{
		ID:    "ablation-agg",
		Title: "RIPPLE aggregation limit sweep, 1 TCP flow on ROUTE0",
		Unit:  "Mbps",
		Rows:  rows,
		Cols:  []string{"R"},
		Config: func(r, _ int) (network.Config, error) {
			return network.Config{
				Positions:  top.Positions,
				Radio:      rc,
				Scheme:     network.Ripple,
				Flows:      []network.FlowSpec{{ID: 1, Path: path, Kind: network.FTP}},
				RippleOpts: core.Options{MaxAgg: aggs[r]},
			}, nil
		},
		Metric: flow0Mbps,
	}.run(opt)
}

// flow0Mbps is the first flow's throughput: the metric of the per-flow
// figures and of most ablations.
func flow0Mbps(_, _ int, res *network.Result) float64 {
	return res.Flows[0].ThroughputMbps
}

// AblationForwarders sweeps the maximum forwarder count 1-7 on a 7-hop line
// (paper Remark 4: 5 works well; §IV-C considers up to 7). Fewer forwarders
// shorten the relay list but skip coverage; the line topology punishes
// aggressive pruning because the pruned hops exceed decode range.
func AblationForwarders(opt Options) (*Table, error) {
	rc := radio.DefaultConfig()
	rc.BitErrorRate = 1e-6
	top, path := topology.Line(7)
	rows := make([]string, 7)
	for i := range rows {
		rows[i] = fmt.Sprintf("maxfwd=%d", i+1)
	}
	return tableGrid{
		ID:    "ablation-fwd",
		Title: "RIPPLE max-forwarders sweep, 7-hop line",
		Unit:  "Mbps",
		Rows:  rows,
		Cols:  []string{"R"},
		Config: func(r, _ int) (network.Config, error) {
			return network.Config{
				Positions:     top.Positions,
				Radio:         rc,
				Scheme:        network.Ripple,
				MaxForwarders: r + 1,
				Flows:         []network.FlowSpec{{ID: 1, Path: path, Kind: network.FTP}},
			}, nil
		},
		Metric: flow0Mbps,
	}.run(opt)
}

// AblationRq toggles the resequencing queue (Remark 6) under the noisy
// channel, where partial frame corruption reorders without it.
func AblationRq(opt Options) (*Table, error) {
	top := topology.Fig1()
	rc := radio.DefaultConfig()
	rc.BitErrorRate = 1e-5
	path := routing.Route0().Flow1
	return tableGrid{
		ID:     "ablation-rq",
		Title:  "RIPPLE receive queue (Rq) on/off, noisy channel (BER 1e-5)",
		Rows:   []string{"Rq on", "Rq off"},
		Cols:   []string{"Mbps", "reorder %"},
		PerRow: true,
		Config: func(r, _ int) (network.Config, error) {
			return network.Config{
				Positions:  top.Positions,
				Radio:      rc,
				Scheme:     network.Ripple,
				Flows:      []network.FlowSpec{{ID: 1, Path: path, Kind: network.FTP}},
				RippleOpts: core.Options{RqOff: r == 1},
			}, nil
		},
		Metric: func(_, c int, res *network.Result) float64 {
			if c == 0 {
				return res.Flows[0].ThroughputMbps
			}
			return 100 * res.Flows[0].ReorderRate
		},
	}.run(opt)
}

// AblationTwoWay disables aggregation at the flow's destination so TCP ACKs
// travel one per frame — isolating the paper's "two-way" part of the
// aggregation design (§III-A2).
func AblationTwoWay(opt Options) (*Table, error) {
	top := topology.Fig1()
	rc := radio.DefaultConfig()
	rc.BitErrorRate = 1e-6
	path := routing.Route0().Flow1
	return tableGrid{
		ID:    "ablation-twoway",
		Title: "RIPPLE two-way vs one-way aggregation, 1 TCP flow on ROUTE0",
		Unit:  "Mbps",
		Rows:  []string{"two-way", "one-way"},
		Cols:  []string{"R"},
		Config: func(r, _ int) (network.Config, error) {
			// Row 1, one-way, holds the destination to one packet a frame;
			// row 0 leaves it at the default limit.
			return network.Config{
				Positions: top.Positions,
				Radio:     rc,
				Scheme:    network.Ripple,
				Flows:     []network.FlowSpec{{ID: 1, Path: path, Kind: network.FTP, DstMaxAgg: r}},
			}, nil
		},
		Metric: flow0Mbps,
	}.run(opt)
}

// AblationRelayDefer compares the strict reading of the relay rule (any
// carrier during the idle wait discards the frame) against the deferral
// interpretation this implementation defaults to, under hidden interferers
// (see docs/model.md, "The relay rule", on the ambiguity in §III-A).
func AblationRelayDefer(opt Options) (*Table, error) {
	rc := hiddenRadio()
	counts := []int{0, 2, 4}
	rows := make([]string, len(counts))
	for i, n := range counts {
		rows[i] = fmt.Sprintf("%d hidden", n)
	}
	return tableGrid{
		ID:    "ablation-defer",
		Title: "RIPPLE relay deferral vs strict idle rule, hidden interferers",
		Unit:  "Mbps (flow 1)",
		Rows:  rows,
		Cols:  []string{"defer", "strict"},
		Config: func(r, c int) (network.Config, error) {
			positions, flows := hiddenScenario(counts[r])
			return network.Config{
				Positions:  positions,
				Radio:      rc,
				Scheme:     network.Ripple,
				Flows:      flows,
				RippleOpts: core.Options{StrictRelay: c == 1},
			}, nil
		},
		Metric: flow0Mbps,
	}.run(opt)
}

// AblationMultiRate exercises the §V future-work extension: a 6 Mbps base
// configuration over clean 100 m hops where the oracle can upshift.
func AblationMultiRate(opt Options) (*Table, error) {
	rc := radio.DefaultConfig()
	rc.BitErrorRate = 1e-6
	top, path := topology.Line(3)
	kinds := []network.SchemeKind{network.DCF, network.Ripple}
	return tableGrid{
		ID:    "ablation-multirate",
		Title: "Multi-rate PHY extension, 3-hop line, 6 Mbps base",
		Unit:  "Mbps",
		Rows:  []string{"fixed 6 Mbps", "multi-rate"},
		Cols:  []string{"DCF", "RIPPLE"},
		Config: func(r, c int) (network.Config, error) {
			return network.Config{
				Positions: top.Positions,
				Radio:     rc,
				Phy:       phys.LowRate(),
				Scheme:    kinds[c],
				Flows:     []network.FlowSpec{{ID: 1, Path: path, Kind: network.FTP}},
				MultiRate: r == 1,
			}, nil
		},
		Metric: flow0Mbps,
	}.run(opt)
}

// AblationRTS compares plain DCF, DCF with RTS/CTS, and RIPPLE under the
// Fig. 6(b) hidden interferers. RTS/CTS is 802.11's own answer to hidden
// terminals; the comparison shows how much of the problem it recovers
// relative to RIPPLE's opportunistic forwarding.
func AblationRTS(opt Options) (*Table, error) {
	rc := hiddenRadio()
	counts := []int{0, 3, 6, 9}
	rows := make([]string, len(counts))
	for i, n := range counts {
		rows[i] = fmt.Sprintf("%d hidden", n)
	}
	variants := []struct {
		kind network.SchemeKind
		rts  int
	}{{network.DCF, 0}, {network.DCF, 1}, {network.Ripple, 0}}
	return tableGrid{
		ID:    "ablation-rts",
		Title: "DCF vs DCF+RTS/CTS vs RIPPLE under hidden interferers",
		Unit:  "Mbps (flow 1)",
		Rows:  rows,
		Cols:  []string{"DCF", "DCF+RTS", "RIPPLE"},
		Config: func(r, c int) (network.Config, error) {
			positions, flows := hiddenScenario(counts[r])
			return network.Config{
				Positions:    positions,
				Radio:        rc,
				Scheme:       variants[c].kind,
				RTSThreshold: variants[c].rts,
				Flows:        flows,
			}, nil
		},
		Metric: flow0Mbps,
	}.run(opt)
}

// Ablations returns every ablation in the order docs/model.md lists them.
func Ablations() []Runner {
	return []Runner{
		{"ablation-agg", func(o Options) ([]*Table, error) { t, err := AblationAggLimit(o); return wrap(t, err) }},
		{"ablation-fwd", func(o Options) ([]*Table, error) { t, err := AblationForwarders(o); return wrap(t, err) }},
		{"ablation-rq", func(o Options) ([]*Table, error) { t, err := AblationRq(o); return wrap(t, err) }},
		{"ablation-twoway", func(o Options) ([]*Table, error) { t, err := AblationTwoWay(o); return wrap(t, err) }},
		{"ablation-defer", func(o Options) ([]*Table, error) { t, err := AblationRelayDefer(o); return wrap(t, err) }},
		{"ablation-multirate", func(o Options) ([]*Table, error) { t, err := AblationMultiRate(o); return wrap(t, err) }},
		{"ablation-rts", func(o Options) ([]*Table, error) { t, err := AblationRTS(o); return wrap(t, err) }},
		{"ablation-etx", func(o Options) ([]*Table, error) { t, err := AblationETXRoutes(o); return wrap(t, err) }},
		{"ablation-routepolicy", func(o Options) ([]*Table, error) { t, err := AblationRoutePolicy(o); return wrap(t, err) }},
		{"ablation-mobility", func(o Options) ([]*Table, error) { t, err := AblationMobility(o); return wrap(t, err) }},
		{"ablation-resilience", AblationResilience},
	}
}
