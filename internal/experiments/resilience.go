package experiments

import (
	"ripple/internal/fault"
	"ripple/internal/network"
	"ripple/internal/radio"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

// AblationResilience sweeps the station failure rate against the route
// policies that can react to it: relays crash and recover under
// exponential churn (flow endpoints are exempt) while minimum-ETX,
// congestion-diversity and geographic routing re-route around the holes
// each epoch, with failure-driven forwarder blacklisting and
// unreachable-destination drops active throughout. Paced (non-saturating)
// CBR flows make delivery ratio the honest headline metric: every offered
// packet either arrives or was lost to the outage. Three tables come
// back: delivery ratio on a 5-hop line whose every relay is a cut vertex
// (delivery tracks the connected fraction of the run), delivery ratio on
// the pruned 60-station city (the sparse incremental epoch rebuild under
// fault masking, where rerouting can actually save packets), and mean
// delivery delay on the line. Delivery falls monotonically as MTBF
// shrinks for every policy; how fast it falls is the policy comparison.
func AblationResilience(opt Options) ([]*Table, error) {
	pols := []network.RoutePolicyKind{
		network.RouteETX, network.RouteCongestion, network.RouteGeo,
	}
	cols := make([]string, len(pols))
	for i, p := range pols {
		cols[i] = p.String()
	}
	// Station churn severity: mean up-time per relay, ∞ (no faults) first
	// so the control row is byte-identical to a fault-free run. MTBF is per
	// station, so the city rows use proportionally longer up-times — 56
	// stations churn there versus 4 on Fig. 1 — keeping the expected number
	// of concurrent holes comparable instead of saturating the sparse grid.
	// A 100 ms fault epoch keeps the post-crash reroute lag small, so the
	// curves measure outage fraction rather than reroute blindness.
	churn := func(mtbf sim.Time) fault.Spec {
		if mtbf == 0 {
			return fault.Spec{}
		}
		return fault.Spec{MTBF: mtbf, MTTR: 2 * sim.Second, Epoch: 100 * sim.Millisecond}
	}
	mtbfs := []sim.Time{0, 30 * sim.Second, 10 * sim.Second, 5 * sim.Second}
	rows := []string{"none", "mtbf 30s", "mtbf 10s", "mtbf 5s"}
	cityMtbfs := []sim.Time{0, 4 * sim.Second, 2 * sim.Second, 1 * sim.Second}
	cityRows := []string{"none", "mtbf 4s", "mtbf 2s", "mtbf 1s"}

	// Line arena: a single paced flow over a 5-hop line, where every relay
	// is a cut vertex — a crashed relay genuinely severs the flow, so the
	// delivered fraction tracks the connected fraction of the run. Denser
	// arenas (Fig. 1 included) never disconnect under any churn rate:
	// opportunistic forwarding finds whoever is still alive and delivery
	// barely moves. A sharpened radio (3 dB shadowing, decode threshold at
	// 150 m) makes adjacent 100 m links near-perfect while a 2-hop skip
	// (200 m) falls far below the route table's 0.1 usable-link floor, so
	// every policy (greedy-geographic included) routes strictly hop by hop
	// and a dead relay means a real outage, not a lucky long shot. Five
	// hops, not more: four interior relays is exactly the paper's forwarder
	// cap (Remark 4), so the mTXOP forwarder list still covers the whole
	// path — a longer line would be silently down-sampled to skip hops the
	// sharpened radio cannot carry.
	line, linePath := topology.Line(5)
	lineRadio := radio.DefaultConfig()
	lineRadio.ShadowSigmaDB = 3
	lineRadio.RXThreshDBm = lineRadio.MeanRxPowerDBm(150)
	lineRadio.CSThreshDBm = lineRadio.RXThreshDBm - 13
	lineFlows := []network.FlowSpec{
		{ID: 1, Path: linePath, Kind: network.CBRTraffic,
			CBRInterval: 20 * sim.Millisecond, CBRPacketBytes: 1000},
	}

	// City arena: the mobility ablation's layout — two multi-hop paced CBR
	// flows on distinct rows of a pruned 60-station grid.
	city, p := topology.CityN(60, 3)
	cityRadio := topology.CityRadio()
	cityCBR := cityFlows(p, 2, 3, 50*sim.Millisecond)

	// deliveryRatio divides delivered packets by the offered count each
	// paced flow generates over the run.
	deliveryRatio := func(flows []network.FlowSpec) func(int, int, *network.Result) float64 {
		return func(_, _ int, res *network.Result) float64 {
			var delivered, offered float64
			for i, fr := range res.Flows {
				delivered += float64(fr.PktsDelivered)
				// Emissions at Start, Start+I, … strictly before Duration.
				span, iv := res.Duration-flows[i].Start, flows[i].CBRInterval
				offered += float64((span + iv - 1) / iv)
			}
			if offered == 0 {
				return 0
			}
			return 100 * delivered / offered
		}
	}

	lineGrid := tableGrid{
		ID:    "ablation-resilience",
		Title: "Station failure rate × route policy, 1 paced CBR on a 5-hop line, RIPPLE",
		Unit:  "delivery %",
		Rows:  rows,
		Cols:  cols,
		Config: func(r, c int) (network.Config, error) {
			return network.Config{
				Positions: line.Positions,
				Radio:     lineRadio,
				Scheme:    network.Ripple,
				Routing:   network.RoutingSpec{Kind: pols[c]},
				Faults:    churn(mtbfs[r]),
				Flows:     lineFlows,
			}, nil
		},
		Metric: deliveryRatio(lineFlows),
	}
	lineRes, err := lineGrid.execute(opt)
	if err != nil {
		return nil, err
	}

	cityTab, err := tableGrid{
		ID:    "ablation-resilience-city",
		Title: "Station failure rate × route policy, 2 paced CBR on 60-station city, RIPPLE",
		Unit:  "delivery %",
		Rows:  cityRows,
		Cols:  cols,
		Config: func(r, c int) (network.Config, error) {
			return network.Config{
				Positions: city.Positions,
				Radio:     cityRadio,
				Scheme:    network.Ripple,
				Routing:   network.RoutingSpec{Kind: pols[c]},
				Faults:    churn(cityMtbfs[r]),
				Flows:     cityCBR,
			}, nil
		},
		Metric: deliveryRatio(cityCBR),
	}.run(opt)
	if err != nil {
		return nil, err
	}

	// The delay table reads a second metric off the line grid's cells.
	delay := lineGrid
	delay.ID = "ablation-resilience-delay"
	delay.Title = "Delivery delay under station churn, 1 paced CBR on a 5-hop line, RIPPLE"
	delay.Unit = "ms mean"
	delay.Metric = func(_, _ int, res *network.Result) float64 {
		var sum float64
		var n int
		for _, fr := range res.Flows {
			if fr.PktsDelivered > 0 {
				sum += fr.MeanDelay.Milliseconds()
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	return []*Table{lineGrid.fold(opt, lineRes), cityTab, delay.fold(opt, lineRes)}, nil
}
