package ripple_test

import (
	"fmt"
	"io"
	"log"
	"math"

	"ripple"
)

// Example runs one TCP flow over a lossy 3-hop path with RIPPLE and
// checks the typed metrics a multi-seed run reports. The assertions are
// qualitative so the example is robust to simulator tuning.
func ExampleRun() {
	top, path := ripple.LineTopology(3)
	res, err := ripple.Run(ripple.Scenario{
		Topology: top,
		Scheme:   ripple.SchemeRIPPLE,
		Flows:    []ripple.Flow{{Path: path, Traffic: ripple.FTP{}}},
		Duration: 500 * ripple.Millisecond,
		Seeds:    []uint64{1, 2, 3},
	})
	if err != nil {
		log.Fatal(err)
	}
	f := res.Flows[0]
	fmt.Println("delivered:", f.Throughput.Mean > 0)
	fmt.Println("interval:", f.Throughput.CI95 > 0 && res.Total.CI95 > 0)
	fmt.Println("delay measured:", f.Delay.Mean > 0)
	fmt.Println("seeds folded:", res.Total.N)
	// Output:
	// delivered: true
	// interval: true
	// delay measured: true
	// seeds folded: 3
}

// ExampleNet_FlowTo declares flows by endpoints: the Net computes each
// flow's minimum-ETX forwarder list under the same radio the simulation
// uses.
func ExampleNet_FlowTo() {
	top, _ := ripple.LineTopology(3)
	net, err := ripple.NewNet(top, ripple.IdealRadio())
	if err != nil {
		log.Fatal(err)
	}
	sc := net.Scenario(ripple.SchemeRIPPLE,
		net.FlowTo(0, 3, ripple.FTP{}),
		net.FlowTo(3, 0, ripple.VoIP{BitrateKbps: 64}),
	)
	sc.Duration = 500 * ripple.Millisecond
	res, err := ripple.Run(sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("flows:", len(res.Flows))
	fmt.Println("both carried:", res.Flows[0].Throughput.Mean > 0 && res.Flows[1].Throughput.Mean > 0)
	fmt.Println("voice scored:", res.Flows[1].MoS.Mean > 0)
	// Output:
	// flows: 2
	// both carried: true
	// voice scored: true
}

// ExampleCompare runs one scenario under several schemes as a single
// campaign and gets each scheme's full result.
func ExampleCompare() {
	top, path := ripple.LineTopology(2)
	results, err := ripple.Compare(ripple.Scenario{
		Topology: top,
		Flows:    []ripple.Flow{{Path: path, Traffic: ripple.FTP{}}},
		Duration: 500 * ripple.Millisecond,
		Radio:    ripple.IdealRadio(),
	}, ripple.SchemeDCF, ripple.SchemeRIPPLE)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("schemes:", len(results))
	fmt.Println("ripple wins:", results["RIPPLE"].Total.Mean > results["DCF"].Total.Mean)
	fmt.Println("delay reported:", results["DCF"].Flows[0].Delay.Mean > 0)
	// Output:
	// schemes: 2
	// ripple wins: true
	// delay reported: true
}

// ExampleRunBatch sweeps two axes — CBR pacing × channel bit error rate —
// as one campaign on the shared bounded worker pool: every (cell × seed)
// run shares the pool, and each cell's seeds fold into typed metrics.
func ExampleRunBatch() {
	top, path := ripple.LineTopology(1)
	bers := []float64{1e-6, 1e-5}
	intervals := []ripple.Time{2 * ripple.Millisecond, 10 * ripple.Millisecond}
	var scenarios []ripple.Scenario
	for _, ber := range bers {
		for _, interval := range intervals {
			scenarios = append(scenarios, ripple.Scenario{
				Topology: top,
				Scheme:   ripple.SchemeDCF,
				Radio:    ripple.IdealRadio().WithBER(ber),
				Flows:    []ripple.Flow{{Path: path, Traffic: ripple.CBR{Interval: interval}}},
				Duration: ripple.Second,
			})
		}
	}
	results, err := ripple.RunBatch(ripple.Campaign{Scenarios: scenarios})
	if err != nil {
		log.Fatal(err)
	}
	// 1000-byte packets every 2 ms / 10 ms = 4 / 0.8 Mbps offered load.
	for i, ber := range bers {
		fast, slow := results[2*i], results[2*i+1]
		fmt.Printf("BER %g: fast pacing %.1f Mbps, slow pacing %.1f Mbps\n", ber, fast.Total.Mean, slow.Total.Mean)
	}
	noisier := true
	for i, clean := range results[:len(intervals)] {
		noisier = noisier && results[len(intervals)+i].Flows[0].Delay.Mean > clean.Flows[0].Delay.Mean
	}
	fmt.Println("noisier channel, longer delay:", noisier)
	// Output:
	// BER 1e-06: fast pacing 4.0 Mbps, slow pacing 0.8 Mbps
	// BER 1e-05: fast pacing 4.0 Mbps, slow pacing 0.8 Mbps
	// noisier channel, longer delay: true
}

// ExampleRoute0 is the mesh-backhaul workflow: three long-lived TCP flows
// cross the Fig. 1 mesh on the Table II ROUTE0 routes, each relay
// forwarding the others' traffic toward its gateway. RIPPLE's mTXOP and
// aggregation carry the most, nine times DCF's total; they do not share it
// more fairly: Jain's index over the three flows is lower under RIPPLE than
// under DCF.
func ExampleRoute0() {
	routes := ripple.Route0()
	results, err := ripple.Compare(ripple.Scenario{
		Topology: ripple.Fig1Topology(),
		Flows: []ripple.Flow{
			{ID: 1, Path: routes.Flow1, Traffic: ripple.FTP{}},
			{ID: 2, Path: routes.Flow2, Traffic: ripple.FTP{}, Start: 100 * ripple.Millisecond},
			{ID: 3, Path: routes.Flow3, Traffic: ripple.FTP{}, Start: 200 * ripple.Millisecond},
		},
		Duration: 5 * ripple.Second,
		Seeds:    []uint64{1, 2, 3},
	}, ripple.SchemeDCF, ripple.SchemeAFR, ripple.SchemeRIPPLE)
	if err != nil {
		log.Fatal(err)
	}
	dcf, afr, rip := results["DCF"], results["AFR"], results["RIPPLE"]
	fmt.Println("total RIPPLE > AFR > DCF, beyond the CIs:", above(rip.Total, afr.Total) && above(afr.Total, dcf.Total))
	fmt.Printf("RIPPLE carries %.0fx DCF's total\n", math.Floor(rip.Total.Mean/dcf.Total.Mean))
	fmt.Println("RIPPLE fairer than DCF:", rip.Fairness.Mean > dcf.Fairness.Mean)
	// Output:
	// total RIPPLE > AFR > DCF, beyond the CIs: true
	// RIPPLE carries 9x DCF's total
	// RIPPLE fairer than DCF: false
}

// ExampleVoIP is the Table III setting: thirty 96 kbps on-off calls (the
// zero VoIP value is the paper's codec) share the Fig. 1 mesh over ROUTE0
// on the 6 Mbps PHY and the clear channel, scored with the paper's
// R-factor → Mean Opinion Score model (> 4 good, < 2 unusable), at the
// paper's 10 s and three seeds. Loss counts packets lost or past the 52 ms
// delay budget: RIPPLE keeps the calls good, DCF loses nearly every packet.
func ExampleVoIP() {
	routes := ripple.Route0()
	var calls []ripple.Flow
	for _, p := range []ripple.Path{routes.Flow1, routes.Flow2, routes.Flow3} {
		for k := 0; k < 10; k++ {
			calls = append(calls, ripple.Flow{Path: p, Traffic: ripple.VoIP{}, Start: ripple.Time(k) * 30 * ripple.Millisecond})
		}
	}
	results, err := ripple.Compare(ripple.Scenario{
		Topology: ripple.Fig1Topology(),
		Flows:    calls,
		Duration: 10 * ripple.Second,
		Seeds:    []uint64{1, 2, 3},
		Radio:    ripple.DefaultRadio().WithLowRatePHY().WithBER(1e-6),
	}, ripple.SchemeDCF, ripple.SchemeAFR, ripple.SchemeRIPPLE)
	if err != nil {
		log.Fatal(err)
	}
	for _, scheme := range []string{"DCF", "AFR", "RIPPLE"} {
		var mos, loss float64
		for _, f := range results[scheme].Flows {
			mos += f.MoS.Mean / float64(len(calls))
			loss += f.Loss.Mean / float64(len(calls))
		}
		fmt.Printf("%-6s mean MoS %.1f, loss %.0f%%\n", scheme, mos, 100*loss)
	}
	// Output:
	// DCF    mean MoS 2.0, loss 92%
	// AFR    mean MoS 2.7, loss 44%
	// RIPPLE mean MoS 4.0, loss 2%
}

// ExampleWeb is Fig. 8's web workload: thirty ON/OFF sessions of
// Pareto-sized transfers (the zero Web value is the paper's 80 KB mean and
// 1 s mean think time) over ROUTE0 on the Fig. 1 mesh. AFR and RIPPLE
// carry more than DCF and complete more transfers; RIPPLE's mean total is
// above AFR's, but within its CI at this budget.
func ExampleWeb() {
	routes := ripple.Route0()
	var sessions []ripple.Flow
	for _, p := range []ripple.Path{routes.Flow1, routes.Flow2, routes.Flow3} {
		for k := 0; k < 10; k++ {
			sessions = append(sessions, ripple.Flow{Path: p, Traffic: ripple.Web{}, Start: ripple.Time(k) * 20 * ripple.Millisecond})
		}
	}
	results, err := ripple.Compare(ripple.Scenario{
		Topology: ripple.Fig1Topology(),
		Flows:    sessions,
		Duration: 5 * ripple.Second,
		Seeds:    []uint64{1, 2, 3},
	}, ripple.SchemeDCF, ripple.SchemeAFR, ripple.SchemeRIPPLE)
	if err != nil {
		log.Fatal(err)
	}
	dcf, afr, rip := results["DCF"], results["AFR"], results["RIPPLE"]
	transfers := func(r *ripple.Result) (n float64) {
		for _, f := range r.Flows {
			n += f.Transfers.Mean
		}
		return n
	}
	fmt.Println("mean total RIPPLE > AFR > DCF:", rip.Total.Mean > afr.Total.Mean && afr.Total.Mean > dcf.Total.Mean)
	fmt.Println("AFR and RIPPLE beyond DCF's CI:", above(afr.Total, dcf.Total) && above(rip.Total, dcf.Total))
	fmt.Println("RIPPLE beyond AFR's CI:", above(rip.Total, afr.Total))
	fmt.Println("transfers RIPPLE > AFR > DCF:", transfers(rip) > transfers(afr) && transfers(afr) > transfers(dcf))
	// Output:
	// mean total RIPPLE > AFR > DCF: true
	// AFR and RIPPLE beyond DCF's CI: true
	// RIPPLE beyond AFR's CI: false
	// transfers RIPPLE > AFR > DCF: true
}

// ExampleRouting_WithForwarders crosses the route metric with the
// forwarder-list size, the two axes the related work varies: minimum ETX
// (De Couto et al.) against congestion diversity (Bhorkar et al.), each
// unsized and sized to K = 1, 2, 3 relays (Blomer & Jindal), as one
// campaign. The Fig. 1 mix gives congestion diversity a hotspot to route
// around: a VoIP call 0→3 whose minimum-ETX route transits station 1, an
// FTP transfer 0→4, and a hotspot FTP transfer that originates at station
// 1. It does not improve the call: the call's MoS under the two metrics
// overlaps within the 95 % CI at every K, and so does the total. What
// moves throughput is K, not the metric.
func ExampleRouting_WithForwarders() {
	net, err := ripple.NewNet(ripple.Fig1Topology(), ripple.DefaultRadio())
	if err != nil {
		log.Fatal(err)
	}
	policies := []ripple.Routing{ripple.ETXRouting(), ripple.CongestionRouting()}
	ks := []int{0, 1, 2, 3} // 0: the policy's own route length
	var scenarios []ripple.Scenario
	for _, policy := range policies {
		for _, k := range ks {
			routing := policy
			if k > 0 {
				routing = policy.WithForwarders(k)
			}
			sc := net.WithRouting(routing).Scenario(ripple.SchemeRIPPLE,
				net.FlowTo(0, 3, ripple.VoIP{}),
				net.FlowTo(0, 4, ripple.FTP{}),
				net.FlowTo(1, 7, ripple.FTP{}),
			)
			sc.Duration = 2 * ripple.Second
			sc.Seeds = []uint64{1, 2, 3}
			scenarios = append(scenarios, sc)
		}
	}
	results, err := ripple.RunBatch(ripple.Campaign{Scenarios: scenarios})
	if err != nil {
		log.Fatal(err)
	}
	etx, congestion := results[:len(ks)], results[len(ks):]
	for i, k := range ks {
		label := "free"
		if k > 0 {
			label = fmt.Sprint(k)
		}
		fmt.Printf("K=%s: ETX and congestion overlap in call MoS %v, in total %v\n", label,
			overlap(etx[i].Flows[0].MoS, congestion[i].Flows[0].MoS), overlap(etx[i].Total, congestion[i].Total))
	}
	mostAtOne := true
	for _, rs := range [][]*ripple.Result{etx, congestion} {
		for _, r := range rs {
			mostAtOne = mostAtOne && r.Total.Mean <= rs[1].Total.Mean
		}
	}
	fmt.Println("most total at K=1 under both:", mostAtOne)
	// Output:
	// K=free: ETX and congestion overlap in call MoS true, in total true
	// K=1: ETX and congestion overlap in call MoS true, in total true
	// K=2: ETX and congestion overlap in call MoS true, in total true
	// K=3: ETX and congestion overlap in call MoS true, in total true
	// most total at K=1 under both: true
}

// ExampleRouter plans routes over a Roofnet-like mesh before running
// traffic — a site survey: the router's minimum-ETX path, hop count and
// per-link delivery for candidate gateway pairs, then a traced validation
// run over the best pair. TraceJSONL turns on the Result's airtime
// accounting; the JSONL itself goes to io.Discard here and to a file for
// cmd/rippletrace.
func ExampleRouter() {
	net, err := ripple.NewNet(ripple.RoofnetTopology(), ripple.DefaultRadio())
	if err != nil {
		log.Fatal(err)
	}
	router := net.Router()
	best, bestETX := [2]ripple.NodeID{}, math.Inf(1)
	for _, pair := range [][2]ripple.NodeID{{0, 8}, {0, 12}, {0, 16}, {1, 21}} {
		path, err := router.Path(pair[0], pair[1])
		if err != nil {
			log.Fatal(err)
		}
		etx := router.PathETX(path)
		fmt.Printf("%d→%d: %v, %d hops, ETX %.2f, links", pair[0], pair[1], path, len(path)-1, etx)
		for i := 0; i+1 < len(path); i++ {
			fmt.Printf(" %.0f%%", 100*router.LinkQuality(path[i], path[i+1]))
		}
		fmt.Println()
		if etx < bestETX {
			best, bestETX = pair, etx
		}
	}
	flow := net.FlowTo(best[0], best[1], ripple.FTP{})
	sc := net.Scenario(ripple.SchemeRIPPLE, flow)
	sc.Duration = ripple.Second
	sc.TraceJSONL = io.Discard
	res, err := ripple.Run(sc)
	if err != nil {
		log.Fatal(err)
	}
	falling := true
	for i := 0; i+1 < len(flow.Path); i++ {
		falling = falling && res.AirtimePerNode[flow.Path[i]] > res.AirtimePerNode[flow.Path[i+1]]
	}
	fmt.Printf("validation on %v carried: %v\n", flow.Path, res.Total.Mean > 0)
	fmt.Println("airtime falls hop by hop toward the destination:", falling)
	fmt.Println("channel busy over half the run:", res.BusyFraction > 0.5)
	// Output:
	// 0→8: [0 1 4 8], 3 hops, ETX 3.66, links 96% 94% 83%
	// 0→12: [0 1 4 8 12], 4 hops, ETX 4.68, links 96% 94% 83% 99%
	// 0→16: [0 1 4 8 14 16], 5 hops, ETX 6.56, links 96% 94% 83% 75% 94%
	// 1→21: [1 3 7 11 17 21], 5 hops, ETX 6.84, links 95% 71% 94% 84% 92%
	// validation on [0 1 4 8] carried: true
	// airtime falls hop by hop toward the destination: true
	// channel busy over half the run: true
}

// above reports whether a exceeds b by more than both 95 % CIs.
func above(a, b ripple.Metric) bool { return a.Mean-a.CI95 > b.Mean+b.CI95 }

// overlap reports whether the 95 % CIs of a and b overlap.
func overlap(a, b ripple.Metric) bool { return math.Abs(a.Mean-b.Mean) <= a.CI95+b.CI95 }
