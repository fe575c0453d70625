// Command ripplesim runs a single scenario from command-line flags and
// prints per-flow results.
//
// Examples:
//
//	ripplesim -topo line -hops 3 -scheme ripple -traffic ftp -dur 10
//	ripplesim -topo fig1 -scheme dcf -route 0 -flows 3
//	ripplesim -topo hidden -hidden 5 -scheme afr
//	ripplesim -topo roofnet -flows 6 -scheme mcexor
//	ripplesim -topo line -traffic cbr -cbrint 5 -cbrsize 200 -ber 1e-5
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ripple"
	"ripple/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the program: it parses args, runs the scenario they describe and
// returns the exit code (0 done, 1 run failure, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ripplesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		topo      = fs.String("topo", "line", "topology: line|fig1|regular|hidden|wigle|roofnet")
		hops      = fs.Int("hops", 3, "line topology hop count")
		scheme    = fs.String("scheme", "ripple", "scheme: dcf|afr|preexor|mcexor|ripple|ripple1")
		traffic   = fs.String("traffic", "ftp", "traffic: ftp|web|voip|cbr")
		route     = fs.Int("route", 0, "fig1 route set (0,1,2)")
		nFlows    = fs.Int("flows", 1, "number of flows (fig1: 1-3, regular: n, wigle: 1-8, roofnet: 1-6)")
		hidden    = fs.Int("hidden", 0, "hidden interferer flows (hidden topology)")
		durSec    = fs.Float64("dur", 10, "simulated seconds")
		seeds     = fs.Int("seeds", 1, "seeds to average over")
		ber       = fs.Float64("ber", 0, "channel bit error rate (0 = profile default, 1e-6)")
		prune     = fs.Float64("prunesigma", -1, "neighbor pruning cutoff in shadowing sigmas (0 = exact/unpruned medium, -1 = profile default 6)")
		lowRate   = fs.Bool("lowrate", false, "6 Mbps PHY (Table III setting)")
		cbrMs     = fs.Float64("cbrint", 0, "CBR emission interval in ms (0 = saturating)")
		cbrBytes  = fs.Int("cbrsize", 0, "CBR payload bytes (0 = PHY packet size)")
		jsonOut   = fs.Bool("json", false, "emit the result as JSON")
		traceOut  = fs.String("trace", "", "write per-frame JSONL trace to this file")
		multiRate = fs.Bool("multirate", false, "enable the multi-rate PHY extension")
		routing   = fs.String("routing", "static", "route policy: static|etx|congestion|geo")
		mobility  = fs.String("mobility", "static", "mobility model: static|waypoint|markov")
		maxSpeed  = fs.Float64("maxspeed", 0, "waypoint maximum speed in m/s (0 = default 15)")
		stay      = fs.Float64("stay", 0, "markov per-epoch stay probability (0 = default 0.9)")
		mobEpoch  = fs.Float64("mobepoch", 0, "mobility epoch length in ms (0 = default 500)")
		mobSeed   = fs.Uint64("mobseed", 0, "trajectory seed (0 = default 1; independent of run seeds)")
		alpha     = fs.Float64("alpha", 0, "congestion backlog weight in ETX per queued packet (0 = default 0.25)")
		epochMs   = fs.Float64("epoch", 0, "dynamic-policy recompute interval in ms (0 = default 500)")
		kRelays   = fs.Int("k", 0, "force routes to k intermediate relays (0 = unsized)")
		priority  = fs.String("priority", "spaced", "relay sizing rule: spaced|neardst|nearsrc")
		rts       = fs.Int("rts", 0, "RTS/CTS threshold in bytes for DCF/AFR (0 = off)")
		parallel  = fs.Int("parallel", 0, "worker pool size for seed runs (0 = GOMAXPROCS)")
		progress  = fs.Bool("progress", false, "report per-seed progress on stderr")
		workers   = fs.Int("workers", 0, "distribute seed runs across n spawned worker processes")
		faults    = fs.String("faults", "", "comma list of fault processes: flaps=N|noise=N|partition=AT+DUR (ms)")
		mtbf      = fs.Float64("mtbf", 0, "station churn mean time between failures in seconds (0 = off)")
		mttr      = fs.Float64("mttr", 0, "station churn mean repair time in seconds (0 = default 1)")
		faultSeed = fs.Uint64("faultseed", 0, "fault-schedule seed (0 = default 1; independent of run seeds)")
		auditOn   = fs.Bool("audit", false, "deep invariant auditing: re-validate conservation invariants after every engine event (slow)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	switch {
	case *seeds < 1:
		fmt.Fprintf(stderr, "-seeds %d: need at least one seed\n", *seeds)
		return 2
	case *hops < 1:
		fmt.Fprintf(stderr, "-hops %d: a line needs at least one hop\n", *hops)
		return 2
	case ripple.Time(*durSec*float64(ripple.Second)) <= 0:
		fmt.Fprintf(stderr, "-dur %g: need a positive number of simulated seconds\n", *durSec)
		return 2
	case *parallel < 0 || *workers < 0:
		fmt.Fprintf(stderr, "-parallel %d -workers %d: need 0 (the default) or more of each\n", *parallel, *workers)
		return 2
	}
	if *workers > 0 && *traceOut != "" {
		// The trace pass runs in the coordinator, but every spawned worker
		// re-executes this argv and would truncate the trace file on start.
		fmt.Fprintln(stderr, "-trace and -workers are mutually exclusive")
		return 2
	}

	sc := ripple.Scenario{
		Duration:     ripple.Time(*durSec * float64(ripple.Second)),
		MultiRate:    *multiRate,
		RTSThreshold: *rts,
		Audit:        *auditOn,
	}
	// Flags map one to one onto the public builders. An option the selected
	// policy, model or fault set would ignore is not checked here: the
	// scenario carries it to sc.Validate below, the one place that knows.
	switch strings.ToLower(*routing) {
	case "static", "":
		sc.Routing = ripple.StaticRouting()
	case "etx":
		sc.Routing = ripple.ETXRouting()
	case "congestion", "orcd":
		sc.Routing = ripple.CongestionRouting()
	case "geo":
		sc.Routing = ripple.GeoRouting()
	default:
		fmt.Fprintf(stderr, "unknown routing policy %q\n", *routing)
		return 2
	}
	if *alpha != 0 {
		sc.Routing = sc.Routing.WithAlpha(*alpha)
	}
	if *epochMs != 0 {
		sc.Routing = sc.Routing.WithEpoch(ripple.Time(*epochMs * float64(ripple.Millisecond)))
	}
	if *kRelays != 0 {
		sc.Routing = sc.Routing.WithForwarders(*kRelays)
	}
	switch strings.ToLower(*priority) {
	case "spaced", "":
	case "neardst":
		sc.Routing = sc.Routing.WithPriority(ripple.PriorityNearDst)
	case "nearsrc":
		sc.Routing = sc.Routing.WithPriority(ripple.PriorityNearSrc)
	default:
		fmt.Fprintf(stderr, "unknown sizing priority %q\n", *priority)
		return 2
	}
	switch strings.ToLower(*mobility) {
	case "static", "":
	case "waypoint":
		sc.Mobility = ripple.WaypointMobility()
	case "markov":
		sc.Mobility = ripple.MarkovMobility()
	default:
		fmt.Fprintf(stderr, "unknown mobility model %q\n", *mobility)
		return 2
	}
	if *maxSpeed != 0 {
		sc.Mobility = sc.Mobility.WithSpeed(0, *maxSpeed)
	}
	if *stay != 0 {
		sc.Mobility = sc.Mobility.WithStay(*stay)
	}
	if *mobEpoch != 0 {
		sc.Mobility = sc.Mobility.WithEpoch(ripple.Time(*mobEpoch * float64(ripple.Millisecond)))
	}
	if *mobSeed > 0 {
		sc.Mobility = sc.Mobility.WithSeed(*mobSeed)
	}
	// Fault injection: -mtbf enables station churn; -faults adds link
	// flaps, noise bursts and a partition window.
	if *mtbf != 0 || *mttr != 0 {
		sc.Faults = sc.Faults.WithStationMTBF(
			ripple.Time(*mtbf*float64(ripple.Second)),
			ripple.Time(*mttr*float64(ripple.Second)))
	}
	if *faults != "" {
		for _, part := range strings.Split(*faults, ",") {
			key, val, _ := strings.Cut(strings.TrimSpace(part), "=")
			var err error
			switch key {
			case "flaps":
				var n int
				if _, err = fmt.Sscanf(val, "%d", &n); err == nil {
					sc.Faults = sc.Faults.WithLinkFlaps(n)
				}
			case "noise":
				var n int
				if _, err = fmt.Sscanf(val, "%d", &n); err == nil {
					sc.Faults = sc.Faults.WithNoiseBursts(n)
				}
			case "partition":
				var atMs, durMs float64
				if _, err = fmt.Sscanf(val, "%g+%g", &atMs, &durMs); err == nil {
					sc.Faults = sc.Faults.WithPartition(
						ripple.Time(atMs*float64(ripple.Millisecond)),
						ripple.Time(durMs*float64(ripple.Millisecond)))
				}
			default:
				err = fmt.Errorf("unknown process (want flaps=N, noise=N or partition=AT+DUR)")
			}
			if err != nil {
				fmt.Fprintf(stderr, "-faults %q: %v\n", part, err)
				return 2
			}
		}
	}
	if *faultSeed > 0 {
		sc.Faults = sc.Faults.WithSeed(*faultSeed)
	}
	for s := 1; s <= *seeds; s++ {
		sc.Seeds = append(sc.Seeds, uint64(s))
	}
	switch strings.ToLower(*scheme) {
	case "dcf", "d", "spr", "s":
		sc.Scheme = ripple.SchemeDCF
	case "afr", "a":
		sc.Scheme = ripple.SchemeAFR
	case "preexor":
		sc.Scheme = ripple.SchemePreExOR
	case "mcexor":
		sc.Scheme = ripple.SchemeMCExOR
	case "ripple", "r16":
		sc.Scheme = ripple.SchemeRIPPLE
	case "ripple1", "r1":
		sc.Scheme = ripple.SchemeRIPPLENoAgg
	default:
		fmt.Fprintf(stderr, "unknown scheme %q\n", *scheme)
		return 2
	}

	var kind ripple.TrafficSpec
	switch strings.ToLower(*traffic) {
	case "ftp":
		kind = ripple.FTP{}
	case "web":
		kind = ripple.Web{}
	case "voip":
		kind = ripple.VoIP{}
	case "cbr":
		kind = ripple.CBR{
			Interval:   ripple.Time(*cbrMs * float64(ripple.Millisecond)),
			PacketSize: *cbrBytes,
		}
	default:
		fmt.Fprintf(stderr, "unknown traffic %q\n", *traffic)
		return 2
	}

	rad := ripple.DefaultRadio()
	switch strings.ToLower(*topo) {
	case "line":
		top, path := ripple.LineTopology(*hops)
		sc.Topology = top
		sc.Flows = []ripple.Flow{{ID: 1, Path: path, Traffic: kind}}
	case "fig1":
		sc.Topology = ripple.Fig1Topology()
		var rs ripple.RouteSet
		switch *route {
		case 0:
			rs = ripple.Route0()
		case 1:
			rs = ripple.Route1()
		case 2:
			rs = ripple.Route2()
		default:
			fmt.Fprintf(stderr, "route must be 0, 1 or 2\n")
			return 2
		}
		paths := []ripple.Path{rs.Flow1, rs.Flow2, rs.Flow3}
		n := min(max(*nFlows, 1), 3)
		for i := 0; i < n; i++ {
			sc.Flows = append(sc.Flows, ripple.Flow{
				ID: i + 1, Path: paths[i], Traffic: kind,
				Start: ripple.Time(i) * 100 * ripple.Millisecond,
			})
		}
	case "regular":
		top, paths := ripple.RegularTopology(max(*nFlows, 1))
		sc.Topology = top
		for i, p := range paths {
			sc.Flows = append(sc.Flows, ripple.Flow{
				ID: i + 1, Path: p, Traffic: kind,
				Start: ripple.Time(i) * 50 * ripple.Millisecond,
			})
		}
	case "hidden":
		top, main, interferers := ripple.HiddenTopology(*hidden)
		sc.Topology = top
		rad = ripple.HiddenRadio()
		sc.Flows = []ripple.Flow{{ID: 1, Path: main, Traffic: kind}}
		for i, p := range interferers {
			sc.Flows = append(sc.Flows, ripple.Flow{
				ID: i + 2, Path: p, Traffic: ripple.CBR{},
				Start: 50 * ripple.Millisecond,
			})
		}
	case "wigle":
		top, paths, _ := ripple.WigleTopology()
		sc.Topology = top
		rad = ripple.HiddenRadio()
		n := min(max(*nFlows, 1), len(paths))
		for i := 0; i < n; i++ {
			sc.Flows = append(sc.Flows, ripple.Flow{
				ID: i + 1, Path: paths[i], Traffic: kind,
				Start: ripple.Time(i) * 50 * ripple.Millisecond,
			})
		}
	case "roofnet":
		sc.Topology = ripple.RoofnetTopology()
		rad = ripple.HiddenRadio()
		router, err := ripple.NewRouter(sc.Topology, rad)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		n := min(max(*nFlows, 1), len(topology.RoofnetPairs))
		for i, pr := range topology.RoofnetPairs[:n] {
			path, err := router.Path(int(pr.Src), int(pr.Dst))
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			sc.Flows = append(sc.Flows, ripple.Flow{
				ID: i + 1, Path: path, Traffic: kind,
				Start: ripple.Time(i) * 50 * ripple.Millisecond,
			})
		}
	default:
		fmt.Fprintf(stderr, "unknown topology %q\n", *topo)
		return 2
	}
	if *ber > 0 {
		rad = rad.WithBER(*ber)
	}
	if *prune >= 0 {
		rad = rad.WithPruneSigma(*prune)
	}
	if *lowRate {
		rad = rad.WithLowRatePHY()
	}
	sc.Radio = rad
	if err := sc.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		sc.TraceJSONL = f
	}

	campaign := ripple.Campaign{Scenarios: []ripple.Scenario{sc}, Parallel: *parallel}
	if *progress {
		campaign.Progress = func(done, total int) {
			fmt.Fprintf(stderr, "\rrun %d/%d", done, total)
			if done == total {
				fmt.Fprintln(stderr)
			}
		}
	}
	var results []*ripple.Result
	var err error
	if *workers > 0 || os.Getenv(ripple.WorkerEnv) != "" {
		// Coordinator mode — or a spawned worker re-executing this argv,
		// in which case Distribute serves leased runs and never returns.
		results, err = campaign.Distribute(ripple.DistributeOptions{
			Workers: *workers,
			Logf:    func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) },
		})
	} else {
		results, err = ripple.RunBatch(campaign)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	res := results[0]
	if *jsonOut {
		out := struct {
			Scheme string         `json:"scheme"`
			Topo   string         `json:"topology"`
			Result *ripple.Result `json:"result"`
		}{sc.Scheme.String(), *topo, res}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	header := fmt.Sprintf("scheme=%s topo=%s radio=%s", sc.Scheme, *topo, sc.Radio)
	if rs := sc.Routing.String(); rs != "static" {
		header += " routing=" + rs
	}
	if ms := sc.Mobility.String(); ms != "static" {
		header += " mobility=" + ms
	}
	if sc.Faults.Active() {
		header += " " + sc.Faults.String()
	}
	fmt.Fprintf(stdout, "%s dur=%gs seeds=%d\n", header, *durSec, *seeds)
	for _, f := range res.Flows {
		line := fmt.Sprintf("flow %2d: %8.3f Mbps  delay %8.2fms  reorder %5.2f%%",
			f.ID, f.Throughput.Mean, f.Delay.Mean, 100*f.Reorder.Mean)
		if f.MoS.Mean > 0 {
			line += fmt.Sprintf("  MoS %.2f loss %.1f%%", f.MoS.Mean, 100*f.Loss.Mean)
		}
		fmt.Fprintln(stdout, line)
	}
	if res.Unreachable.Mean > 0 || res.RouteStale.Mean > 0 {
		fmt.Fprintf(stdout, "degradation: %.0f unreachable drops, %.0f stale-route epochs\n",
			res.Unreachable.Mean, res.RouteStale.Mean)
	}
	if res.Total.N >= 2 {
		fmt.Fprintf(stdout, "total: %.3f ±%.3f Mbps (95%% CI over %d seeds)\n",
			res.Total.Mean, res.Total.CI95, res.Total.N)
	} else {
		fmt.Fprintf(stdout, "total: %.3f Mbps\n", res.Total.Mean)
	}
	return 0
}
