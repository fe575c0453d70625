package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"time"

	"ripple/internal/campaign"
	"ripple/internal/dist"
	"ripple/internal/fault"
	"ripple/internal/forward"
	"ripple/internal/mac"
	"ripple/internal/network"
	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
	"ripple/internal/stats"
	"ripple/internal/topology"
	"ripple/internal/trace"
	"ripple/internal/transport"
)

// perLayer names every per-layer metric, <module>.<metric>. Counts come
// exact from the network.Results of the digest passes; *_ns, *_us and
// *_ms come from probes — the benchmark timing calls into a layer's
// public functions in isolation, on inputs taken from the workload; a
// <module>.share is probe cost × the workload's count of that operation ÷
// the workload's busy time, an outside estimate of the layer's share.
var perLayer = []metricDef{
	{"sim.events_per_op", "count"},
	{"sim.pending_at_end", "count"},
	{"sim.do_run_ns_d64", "ns"},
	{"sim.do_run_ns_d4096", "ns"},
	{"sim.reschedule_ns", "ns"},
	{"sim.share", "ratio"},

	{"radio.frames_sent", "count"},
	{"radio.frames_delivered", "count"},
	{"radio.frames_collided", "count"},
	{"radio.frames_shadowed", "count"},
	{"radio.delivery_ratio", "ratio"},
	{"radio.mean_degree", "count"},
	{"radio.transmit_ns", "ns"},
	{"radio.linkplan_build_ms", "ms"},
	{"radio.linkplan_rebuild_ms", "ms"},
	{"radio.share", "ratio"},

	{"mac.tx_frames", "count"},
	{"mac.retries", "count"},
	{"mac.ack_timeouts", "count"},
	{"mac.queue_drops", "count"},
	{"mac.retry_drops", "count"},
	{"mac.retry_ratio", "ratio"},
	{"mac.queue_ns", "ns"},
	{"mac.contend_ns", "ns"},
	{"mac.share", "ratio"},

	{"pkt.pool_ns", "ns"},
	{"pkt.frame_clone_ns", "ns"},
	{"pkt.pool_in_use_end", "count"},

	{"forward.relays", "count"},
	{"forward.relay_cancels", "count"},
	{"forward.duplicates", "count"},
	{"forward.unreachable", "count"},
	{"forward.crash_drops", "count"},
	{"forward.fwdlist_ns", "ns"},
	{"forward.nexthop_ns", "ns"},
	{"forward.dcf.ns_per_event", "ns"},
	{"forward.afr.ns_per_event", "ns"},
	{"forward.preexor.ns_per_event", "ns"},
	{"forward.mcexor.ns_per_event", "ns"},
	{"core.ripple.ns_per_event", "ns"},
	{"core.ripple_noagg.ns_per_event", "ns"},
	{"core.agg_pkts_per_frame", "ratio"},
	{"core.relay_ratio", "ratio"},

	{"transport.pkts_delivered", "count"},
	{"transport.transfers", "count"},
	{"transport.tcp_bulk_ns_per_seg", "ns"},
	{"transport.tcp_short_ns_per_seg", "ns"},
	{"transport.voip_ns_per_pkt", "ns"},
	{"transport.share", "ratio"},

	{"routing.shortest_path_us", "us"},
	{"routing.route_stale", "count"},

	{"network.world_build_ms", "ms"},
	{"network.epoch_derive_ms", "ms"},
	{"network.run_fixed_ms", "ms"},
	{"network.average_us", "us"},
	{"topology.city_gen_ms", "ms"},
	{"fault.build_ms", "ms"},

	{"stats.welford_add_ns", "ns"},
	{"stats.welford_merge_ns", "ns"},

	{"campaign.plan_ms", "ms"},
	{"campaign.assemble_us", "us"},
	{"campaign.runs_per_s", "1/s"},
	{"campaign.pool_speedup_x", "x"},

	{"dist.payload_bytes_per_cell", "B"},
	{"dist.frame_rt_us", "us"},
	{"dist.wal_append_us", "us"},
	{"dist.overhead_ratio", "ratio"},

	{"trace.on_overhead_ratio", "ratio"},
	{"trace.events_per_op", "count"},
	{"trace.op_wall_ms_p50", "ms"},
	{"audit.deep_overhead_ratio", "ratio"},

	{"host.calib_ns", "ns"},
	{"host.steal_share", "ratio"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounts turns the digest passes' tally into the count metrics.
// Counts are means per op: a ratio of two integers that repeat exactly
// for a seed, so the metric does too.
func layerCounts(m map[string]float64, t *tally) {
	ops := float64(t.ops)
	perOp := func(n uint64) float64 { return ratio(float64(n), ops) }
	m["sim.events_per_op"] = perOp(t.events)
	m["sim.pending_at_end"] = ratio(float64(t.pending), float64(t.results))
	md := t.medium
	m["radio.frames_sent"] = perOp(md.FramesSent)
	m["radio.frames_delivered"] = perOp(md.FramesDelivered)
	m["radio.frames_collided"] = perOp(md.FramesCollided)
	m["radio.frames_shadowed"] = perOp(md.FramesShadowed)
	// Useful work over attempts: decodes ÷ every per-receiver outcome.
	m["radio.delivery_ratio"] = ratio(float64(md.FramesDelivered), float64(md.FramesDelivered+
		md.FramesCollided+md.FramesShadowed+md.HeaderErrors+md.HalfDuplexLost))
	c := t.mac
	m["mac.tx_frames"] = perOp(c.TxFrames)
	m["mac.retries"] = perOp(c.Retries)
	m["mac.ack_timeouts"] = perOp(c.AckTimeouts)
	m["mac.queue_drops"] = perOp(c.QueueDrops)
	m["mac.retry_drops"] = perOp(c.MACDrops)
	m["mac.retry_ratio"] = ratio(float64(c.Retries), float64(c.TxData))
	m["pkt.pool_in_use_end"] = ratio(float64(t.poolInUse), float64(t.results))
	m["forward.relays"] = perOp(c.Relays)
	m["forward.relay_cancels"] = perOp(c.RelayCancels)
	m["forward.duplicates"] = perOp(c.Duplicates)
	m["forward.unreachable"] = perOp(c.Unreachable)
	m["forward.crash_drops"] = perOp(c.CrashDrops)
	m["core.agg_pkts_per_frame"] = ratio(float64(c.TxPackets), float64(c.TxData))
	m["core.relay_ratio"] = ratio(float64(c.Relays), float64(c.TxData))
	var delivered int64
	for _, d := range t.delivered {
		delivered += d
	}
	m["transport.pkts_delivered"] = ratio(float64(delivered), ops)
	m["transport.transfers"] = ratio(float64(t.transfers), ops)
	m["routing.route_stale"] = perOp(t.stale)
	m["dist.payload_bytes_per_cell"] = ratio(float64(t.payloadBytes), float64(t.cells))
}

// timeIt is the probes' estimator: it grows the iteration count until a
// batch lasts at least batch, then reports the median cost per iteration
// over five batches — three when an iteration takes tens of milliseconds,
// one when it takes half a second. fn runs n iterations.
func timeIt(batch time.Duration, fn func(n int)) float64 {
	n := 1
	var d time.Duration
	for {
		start := time.Now()
		fn(n)
		d = time.Since(start)
		if d >= batch || n >= 1<<22 {
			break
		}
		n *= 4
	}
	samples := []float64{float64(d.Nanoseconds()) / float64(n)}
	more := 4
	switch {
	case d >= 500*time.Millisecond:
		more = 0
	case d >= 20*time.Millisecond:
		more = 2
	}
	for i := 0; i < more; i++ {
		start := time.Now()
		fn(n)
		samples = append(samples, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(samples)
}

// prober runs named probes under spans and files their results.
type prober struct {
	m     map[string]float64
	tr    *tracer
	batch time.Duration // shortest timed batch
}

// ns times fn and files the cost per iteration under name, in the unit
// the name ends in.
func (p *prober) ns(name string, fn func(n int)) float64 {
	end := p.tr.start("probe."+name, -1)
	v := timeIt(p.batch, fn)
	end()
	switch {
	case strings.HasSuffix(name, "_ms"):
		p.m[name] = v / 1e6
	case strings.HasSuffix(name, "_us"):
		p.m[name] = v / 1e3
	default:
		p.m[name] = v
	}
	return v
}

// sink keeps probe results alive.
var sink any

// nullMAC is the stub station the radio probe attaches.
type nullMAC struct{}

func (nullMAC) ChannelBusy()                     {}
func (nullMAC) ChannelIdle()                     {}
func (nullMAC) FrameReceived(*pkt.Frame, []bool) {}
func (nullMAC) FrameCorrupted()                  {}
func (nullMAC) TxDone(*pkt.Frame)                {}

// hold is the event of the classic hold model: firing schedules itself
// again a random interval ahead, so the heap stays at its initial depth.
type hold struct {
	eng  *sim.Engine
	rng  *sim.RNG
	left *int
}

func (h *hold) Run() {
	*h.left--
	if *h.left == 0 {
		h.eng.Stop()
	}
	h.eng.Do(h.eng.Now()+sim.Time(h.rng.IntN(1000)+1), h)
}

func holdProbe(depth int) func(n int) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1, 1)
	left := 0
	for i := 0; i < depth; i++ {
		eng.Do(sim.Time(rng.IntN(1000)+1), &hold{eng: eng, rng: rng, left: &left})
	}
	return func(n int) {
		left = n
		eng.Run(1 << 62)
	}
}

// tcpProbe wires one connection's two ends back to back through an
// engine: each SendFunc delivers to the other end a fixed delay later.
// It returns a function that runs until n more segments are delivered.
func tcpProbe(short bool) func(n int) {
	eng := sim.NewEngine()
	fs := &stats.Flow{ID: 1}
	var conn *transport.TCP
	var target int64
	wire := func(to pkt.NodeID) transport.SendFunc {
		return func(p *pkt.Packet) bool {
			eng.After(2*sim.Millisecond, func() {
				p.MarkDelivered()
				conn.Receive(to, p)
				p.Release()
				if fs.PktsDelivered >= target {
					eng.Stop()
				}
			})
			return true
		}
	}
	conn = transport.NewTCP(eng, transport.DefaultTCPConfig(), 1, 0, 1, wire(1), wire(0), fs)
	conn.SetPool(&pkt.Pool{})
	if short {
		var again func()
		again = func() { eng.After(0, func() { conn.StartTransfer(20, again) }) }
		again()
	} else {
		conn.Start()
	}
	return func(n int) {
		target = fs.PktsDelivered + int64(n)
		eng.Run(1 << 62)
	}
}

func voipProbe() func(n int) {
	eng := sim.NewEngine()
	fs := &stats.Flow{ID: 1}
	var v *transport.VoIP
	var target int64
	send := func(p *pkt.Packet) bool {
		eng.After(2*sim.Millisecond, func() {
			p.MarkDelivered()
			v.Receive(1, p)
			p.Release()
			if fs.VoIPArrived >= target {
				eng.Stop()
			}
		})
		return true
	}
	v = transport.NewVoIP(eng, transport.DefaultVoIPConfig(), 1, 0, 1, send, fs, sim.NewRNG(1, 2))
	v.SetPool(&pkt.Pool{})
	v.Start()
	return func(n int) {
		target = fs.VoIPArrived + int64(n)
		eng.Run(1 << 62)
	}
}

// linkTable builds the routing table the way network.BuildWorld does,
// through routing's public constructors.
func linkTable(rc radio.Config, plan *radio.LinkPlan) *routing.Table {
	if plan.Pruned() {
		return routing.NewSparseTableSym(plan.Stations(), func(a pkt.NodeID, yield func(int32, float64)) {
			plan.EachAscNeighbor(int(a), func(j int32, d float64) { yield(j, 1-rc.LossProb(d)) })
		}, 0.1)
	}
	return routing.NewTable(plan.Stations(), func(a, b pkt.NodeID) float64 {
		return 1 - rc.LossProb(plan.Distance(int(a), int(b)))
	}, 0.1)
}

// runProbes times every layer in isolation on inputs taken from cfg (the
// workload's scenario), then the fixed-input probes, and derives the
// shares from the digest passes' counts and busy time.
func runProbes(m map[string]float64, cfg network.Config, t *tally, busyNs float64, tr *tracer, o runOpts) error {
	defer tr.start("probes", -1)()
	p := &prober{m: m, tr: tr, batch: 4 * time.Millisecond}
	if o.quick {
		p.batch /= 8
	}
	cfg.Normalize()
	cfg.World = nil
	n := len(cfg.Positions)

	// sim: the hold model at a shallow and a city-deep heap.
	d64 := p.ns("sim.do_run_ns_d64", holdProbe(64))
	d4096 := p.ns("sim.do_run_ns_d4096", holdProbe(4096))
	{
		eng := sim.NewEngine()
		ev := eng.At(1, func() {})
		p.ns("sim.reschedule_ns", func(n int) {
			for i := 0; i < n; i++ {
				eng.Reschedule(ev, eng.Now()+10)
				eng.Run(eng.Now() + 10)
			}
		})
	}

	// radio: link plan build and rebuild on the workload's positions, and
	// one Transmit with every reception drained.
	var plan *radio.LinkPlan
	p.ns("radio.linkplan_build_ms", func(k int) {
		for i := 0; i < k; i++ {
			plan = radio.NewLinkPlan(cfg.Radio, cfg.Positions)
		}
	})
	m["radio.mean_degree"] = float64(plan.Links()) / float64(n)
	moved := append([]radio.Pos(nil), cfg.Positions...)
	rng := sim.NewRNG(o.seed, 3)
	for i := 0; i < (n+19)/20; i++ { // 5 % of the stations, a hop away
		j := rng.IntN(n)
		moved[j].X += topology.Hop
	}
	p.ns("radio.linkplan_rebuild_ms", func(k int) {
		for i := 0; i < k; i++ {
			sink = plan.Rebuild(moved)
		}
	})
	var transmitNs float64
	{
		eng := sim.NewEngine()
		med := radio.NewMediumOn(eng, plan, cfg.Phy, sim.NewRNG(o.seed, 4))
		for i := 0; i < n; i++ {
			med.Attach(pkt.NodeID(i), nullMAC{})
		}
		air := cfg.Phy.DataTime(cfg.Phy.PacketBytes)
		tx := 0
		transmitNs = p.ns("radio.transmit_ns", func(k int) {
			for i := 0; i < k; i++ {
				id := pkt.NodeID(tx % n)
				tx++
				med.Transmit(&pkt.Frame{Kind: pkt.Data, Tx: id, Rx: pkt.Broadcast,
					Origin: id, FinalDst: id, Duration: air})
				eng.Run(eng.Now() + air + sim.Millisecond)
			}
		})
	}

	// mac: the interface queue in aggregation-sized batches, and one
	// request-to-grant on an idle channel.
	var queueNs, contendNs float64
	{
		q := mac.NewQueue(cfg.Phy.QueueLimit)
		pkts := make([]*pkt.Packet, 16)
		for i := range pkts {
			pkts[i] = &pkt.Packet{FlowID: 1}
		}
		buf := make([]*pkt.Packet, 0, 16)
		all := func(*pkt.Packet) bool { return true }
		queueNs = p.ns("mac.queue_ns", func(k int) {
			for i := 0; i < k; i++ {
				for _, pk := range pkts {
					q.Push(pk)
				}
				buf = q.PopNWhereInto(buf[:0], 16, all)
			}
		})
		eng := sim.NewEngine()
		var c *mac.Contender
		c = mac.NewContender(eng, cfg.Phy, sim.NewRNG(o.seed, 5), func() { c.Success() })
		contendNs = p.ns("mac.contend_ns", func(k int) {
			for i := 0; i < k; i++ {
				c.Request()
				eng.Run(eng.Now() + 10*sim.Millisecond)
			}
		})
	}

	// pkt: the per-run pool and the relay's frame copy.
	{
		pl := &pkt.Pool{}
		p.ns("pkt.pool_ns", func(k int) {
			for i := 0; i < k; i++ {
				pk := pl.Get()
				pk.Ref()
				pk.Release()
				pk.Release()
			}
		})
		f := &pkt.Frame{Kind: pkt.Data, FwdList: []pkt.NodeID{3, 2, 1}, Packets: make([]*pkt.Packet, 16)}
		for i := range f.Packets {
			f.Packets[i] = &pkt.Packet{}
		}
		p.ns("pkt.frame_clone_ns", func(k int) {
			for i := 0; i < k; i++ {
				sink = f.Clone()
			}
		})
	}

	// routing and forward: Dijkstra between the workload's flow endpoints,
	// then RouteBook lookups on the resulting routes.
	{
		table := linkTable(cfg.Radio, plan)
		flows := cfg.Flows
		next := 0
		p.ns("routing.shortest_path_us", func(k int) {
			for i := 0; i < k; i++ {
				f := flows[next%len(flows)]
				next++
				sink, _ = table.ShortestPath(f.Path.Src(), f.Path.Dst())
			}
		})
		book := forward.NewRouteBook(cfg.MaxForwarders)
		for _, f := range flows {
			route := f.Path
			if len(route) == 2 {
				if sp, err := table.ShortestPath(route.Src(), route.Dst()); err == nil {
					route = sp
				}
			}
			book.Add(f.ID, route)
		}
		p.ns("forward.fwdlist_ns", func(k int) {
			for i := 0; i < k; i++ {
				f := flows[i%len(flows)]
				sink = book.FwdList(f.ID, f.Path.Src(), f.Path.Dst())
			}
		})
		p.ns("forward.nexthop_ns", func(k int) {
			var hop pkt.NodeID // typed: boxing each result would be timed too
			for i := 0; i < k; i++ {
				f := flows[i%len(flows)]
				hop, _ = book.NextHop(f.ID, f.Path.Src(), f.Path.Dst())
			}
			sink = hop
		})
	}

	// transport: cost per delivered segment or packet with no network in
	// between.
	bulkNs := p.ns("transport.tcp_bulk_ns_per_seg", tcpProbe(false))
	shortNs := p.ns("transport.tcp_short_ns_per_seg", tcpProbe(true))
	voipNs := p.ns("transport.voip_ns_per_pkt", voipProbe())

	// network, topology, fault: what set-up is made of.
	static := cfg
	static.Mobility, static.Faults = network.MobilitySpec{}, fault.Spec{}
	var err error
	staticNs := p.ns("network.world_build_ms", func(k int) {
		for i := 0; i < k && err == nil; i++ {
			_, err = network.BuildWorld(static)
		}
	})
	if err != nil {
		return err
	}
	mobile := static
	mobile.Mobility = cfg.Mobility
	if mobile.Mobility.Kind == network.MobilityStatic {
		mobile.Mobility = network.MobilitySpec{Kind: network.MobilityMarkov, Stay: 0.95, Seed: cityTrajectories}
	}
	var mw *network.World
	end := tr.start("probe.network.epoch_derive_ms", -1)
	mobileNs := timeIt(p.batch, func(k int) {
		for i := 0; i < k && err == nil; i++ {
			mw, err = network.BuildWorld(mobile)
		}
	})
	end()
	if err != nil {
		return err
	}
	if e := mw.Epochs(); e > 0 && mobileNs > staticNs {
		m["network.epoch_derive_ms"] = (mobileNs - staticNs) / float64(e) / 1e6
	}
	p.ns("topology.city_gen_ms", func(k int) {
		for i := 0; i < k; i++ {
			sink, _ = topology.CityN(n, o.seed)
		}
	})
	{
		spec := cfg.Faults
		if !spec.Active() {
			spec = fault.Spec{MTBF: 20 * sim.Second, MTTR: 2 * sim.Second, FlapLinks: 20}
		}
		spec.Seed = derive(o.seed, tagFaults)
		var links [][2]pkt.NodeID
		for a := 0; a < n; a++ {
			plan.EachAscNeighbor(a, func(j int32, _ float64) {
				if int(j) > a {
					links = append(links, [2]pkt.NodeID{pkt.NodeID(a), pkt.NodeID(j)})
				}
			})
		}
		exempt := make([]bool, n)
		p.ns("fault.build_ms", func(k int) {
			for i := 0; i < k; i++ {
				sink = fault.Build(spec, cfg.Duration, cfg.Positions, exempt, links)
			}
		})
	}

	// A 1 µs run on a prebuilt world is what every run pays before its
	// first event and after its last: assembly and teardown.
	fixed := cfg
	fixed.Duration = sim.Microsecond
	if fixed.World, err = network.BuildWorld(fixed); err != nil {
		return err
	}
	var res *network.Result
	p.ns("network.run_fixed_ms", func(k int) {
		for i := 0; i < k && err == nil; i++ {
			res, err = network.Run(fixed)
		}
	})
	if err != nil {
		return err
	}

	// stats, campaign, dist: the fold and the wire, on a cell shaped like
	// the workload's (three seeds of its flows).
	cell := []*network.Result{res, res, res}
	{
		var w stats.Welford
		p.ns("stats.welford_add_ns", func(k int) {
			for i := 0; i < k; i++ {
				w.Add(float64(i))
			}
		})
		var a, b stats.Welford
		for i := 0; i < 8; i++ {
			a.Add(float64(i))
			b.Add(float64(2 * i))
		}
		p.ns("stats.welford_merge_ns", func(k int) {
			var c stats.Welford
			for i := 0; i < k; i++ {
				c = a
				c.Merge(b)
			}
			sink = c
		})
		p.ns("network.average_us", func(k int) {
			for i := 0; i < k; i++ {
				sink = network.Average(cell)
			}
		})
	}
	{
		g := campaign.Grid{
			Name:  "probe",
			Axes:  []campaign.Axis{campaign.A("cell", "0", "1", "2", "3", "4", "5", "6", "7")},
			Seeds: []uint64{1, 2, 3},
			Build: func(campaign.Point) (network.Config, error) { return static, nil },
		}
		var plan *campaign.Plan
		p.ns("campaign.plan_ms", func(k int) {
			for i := 0; i < k && err == nil; i++ {
				plan, err = g.Plan()
			}
		})
		if err != nil {
			return err
		}
		perCell := make([][]*network.Result, plan.NumCells())
		for i := range perCell {
			perCell[i] = cell
		}
		p.ns("campaign.assemble_us", func(k int) {
			for i := 0; i < k && err == nil; i++ {
				sink, err = plan.Assemble(perCell)
			}
		})
		if err != nil {
			return err
		}
	}
	{
		payload, err := canonical(cell)
		if err != nil {
			return err
		}
		msg := &dist.Message{Type: dist.MsgCell, Grid: "probe", Lease: 1, Cell: 1,
			Payload: payload, Stats: dist.ResultStats(cell)}
		var pipe bytes.Buffer
		conn := dist.NewConn(&pipe)
		p.ns("dist.frame_rt_us", func(k int) {
			for i := 0; i < k && err == nil; i++ {
				if err = conn.Send(msg); err == nil {
					sink, err = conn.Recv()
				}
			}
		})
		if err != nil {
			return err
		}
		wal, err := dist.CreateWAL(filepath.Join(o.scratch, "probe.wal"))
		if err != nil {
			return err
		}
		defer wal.Close()
		p.ns("dist.wal_append_us", func(k int) {
			for i := 0; i < k && err == nil; i++ {
				err = wal.Append("probe", i, payload, msg.Stats)
			}
		})
		if err != nil {
			return err
		}
	}

	if err := fixedProbes(p, o); err != nil {
		return err
	}

	// Shares: probe cost × how often the digest passes did that operation,
	// over their busy time. They overlap (a transmission's receptions are
	// also events) and leave out what no probe covers; they are estimates
	// from outside, not a partition.
	simNs := d64
	if n >= 1000 {
		simNs = d4096
	}
	m["sim.share"] = ratio(simNs*float64(t.events), busyNs)
	m["radio.share"] = ratio(transmitNs*float64(t.medium.FramesSent), busyNs)
	m["mac.share"] = ratio((queueNs+contendNs)*float64(t.mac.TxData), busyNs)
	m["transport.share"] = ratio(bulkNs*float64(t.delivered[network.FTP])+
		shortNs*float64(t.delivered[network.Web])+
		voipNs*float64(t.delivered[network.VoIPTraffic]+t.delivered[network.CBRTraffic]), busyNs)
	return nil
}

// fixedProbes are the probes whose input is a fixed scenario, whatever
// the workload: the voip_fig1 config under each scheme (median of three
// runs), the program's own tracer on the ftp_chain config, and the deep
// audit on voip_fig1. Every traced run takes them, so each workload's
// traced run adds a sample.
func fixedProbes(p *prober, o runOpts) error {
	voip := voipFig1(o.seed, o.quick)
	world, err := network.BuildWorld(voip)
	if err != nil {
		return err
	}
	voip.World = world // a World does not depend on the scheme
	voip.Seed = derive(o.seed, tagRun)
	perEvent := func(name string, cfg network.Config) error {
		defer p.tr.start("probe."+name, -1)()
		var ns []float64
		for i := 0; i < 3; i++ {
			res, wall, err := runOp(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			ns = append(ns, ratio(float64(wall.Nanoseconds()), float64(res.Events)))
		}
		p.m[name] = median(ns)
		return nil
	}
	for _, s := range []struct {
		name string
		kind network.SchemeKind
	}{
		{"forward.dcf.ns_per_event", network.DCF},
		{"forward.afr.ns_per_event", network.AFR},
		{"forward.preexor.ns_per_event", network.PreExOR},
		{"forward.mcexor.ns_per_event", network.MCExOR},
		{"core.ripple.ns_per_event", network.Ripple},
		{"core.ripple_noagg.ns_per_event", network.RippleNoAgg},
	} {
		cfg := voip
		cfg.Scheme = s.kind
		if err := perEvent(s.name, cfg); err != nil {
			return err
		}
	}

	// pairRatio alternates the two variants three times and reports the
	// ratio of the median walls.
	pairRatio := func(name string, on, off network.Config) error {
		defer p.tr.start("probe."+name, -1)()
		var onS, offS []float64
		for i := 0; i < 3; i++ {
			for _, v := range []struct {
				cfg network.Config
				to  *[]float64
			}{{off, &offS}, {on, &onS}} {
				_, wall, err := runOp(v.cfg)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				*v.to = append(*v.to, wall.Seconds())
			}
		}
		p.m[name] = ratio(median(onS), median(offS))
		return nil
	}
	ftp := ftpChain(o.seed, o.quick)
	if ftp.World, err = network.BuildWorld(ftp); err != nil {
		return err
	}
	ftp.Seed = derive(o.seed, tagRun)
	hook := (&trace.Recorder{W: io.Discard}).Hook()
	events := 0
	traced := ftp
	traced.Trace = func(at sim.Time, kind string, node pkt.NodeID, f *pkt.Frame) {
		events++
		hook(at, kind, node, f)
	}
	if err := pairRatio("trace.on_overhead_ratio", traced, ftp); err != nil {
		return err
	}
	p.m["trace.events_per_op"] = float64(events) / 3 // pairRatio ran it three times

	// The deep audit re-validates its catalogue after every event; a fifth
	// of the scenario's duration keeps the audited side to about a second.
	short := voip
	short.Duration /= 5
	if short.World, err = network.BuildWorld(short); err != nil {
		return err
	}
	audited := short
	audited.Audit = true
	return pairRatio("audit.deep_overhead_ratio", audited, short)
}
