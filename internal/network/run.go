package network

import (
	"fmt"

	"ripple/internal/audit"
	"ripple/internal/fault"
	"ripple/internal/forward"
	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/rateadapt"
	"ripple/internal/routing"
	"ripple/internal/sim"
	"ripple/internal/stats"
	"ripple/internal/traffic"
	"ripple/internal/transport"
)

// endpointKey routes delivered packets to the right transport endpoint.
type endpointKey struct {
	flow int
	node pkt.NodeID
}

type receiver interface {
	Receive(at pkt.NodeID, p *pkt.Packet)
}

// run is the mutable state of one simulation run, assembled over a shared
// read-only World: everything here is private to the run, everything
// reached through world is not written.
type run struct {
	cfg    *Config
	world  *World
	eng    *sim.Engine
	medium *radio.Medium
	// routes is per-run mutable state (epoch swaps and dynamic policies
	// rewrite it); it starts from the World's resolved initial routes.
	routes *forward.RouteBook
	// policy is the current world's: the root's, then each epoch's.
	policy routing.Policy
	// aud stays nil with deep auditing off — every hook nil-checks, so the
	// fast path pays only predictable branches.
	aud       *audit.Auditor
	schemes   []forward.Scheme
	counters  []forward.Counters
	endpoints map[endpointKey]receiver
	// pool is the run's one packet pool: transports draw from it, and the
	// MAC layer recycles packets at their terminal delivery/drop points, so
	// the steady-state packet path allocates nothing.
	pool       *pkt.Pool
	flowStats  []*stats.Flow
	routeStale uint64
	// The run's periodic timers, each re-armed from its own callback: the
	// epoch-world swap, and a dynamic policy's queue-depth sample and
	// re-route tick.
	epochTimer, sampleTimer, rerouteTimer sim.Timer
}

// Run executes one scenario to completion and returns its results. When
// cfg.World is set, the run executes on that shared snapshot (reading it
// only); otherwise it builds a private one. Either way the results are
// bit-identical for a given Config.
//
// The phases schedule their first events in a fixed order — epoch swap,
// re-route tick, fault events, flow starts — and events at equal
// timestamps fire in scheduling order, so at a shared boundary the
// re-route already sees the new world. Everything then runs inside the
// engine's single-threaded loop, so results are bit-identical at any pool
// parallelism.
func Run(cfg Config) (*Result, error) {
	cfg.Normalize()
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	world := cfg.World
	if world == nil {
		w, err := BuildWorld(cfg)
		if err != nil {
			return nil, err
		}
		world = w
	} else if err := world.check(&cfg); err != nil {
		return nil, err
	}
	r := newRun(&cfg, world)
	r.armEpochs()
	r.armReroute()
	r.armFaults()
	if err := r.startFlows(); err != nil {
		return nil, err
	}
	r.eng.Run(cfg.Duration)
	return r.fold(), nil
}

// newRun is the build phase: engine, medium, route book, auditor and one
// forwarding-scheme agent per station.
func newRun(cfg *Config, world *World) *run {
	r := &run{
		cfg:       cfg,
		world:     world,
		eng:       sim.NewEngine(),
		routes:    forward.NewRouteBook(cfg.MaxForwarders),
		policy:    world.policy,
		endpoints: make(map[endpointKey]receiver),
		counters:  make([]forward.Counters, len(cfg.Positions)),
		schemes:   make([]forward.Scheme, len(cfg.Positions)),
		pool:      &pkt.Pool{},
	}
	r.medium = radio.NewMediumOn(r.eng, world.plan, cfg.Phy, sim.NewRNG(cfg.Seed, 1))
	r.medium.Trace = cfg.Trace
	for i, f := range cfg.Flows {
		r.routes.Add(f.ID, world.routes[i])
	}
	if world.faults != nil {
		// Graceful degradation: consecutive delivery failures to a forwarder
		// blacklist it until the next epoch's route update.
		r.routes.EnableFailureDetection(world.faults.Threshold())
	}
	rateOracle := newRateOracle(cfg)
	if cfg.Audit || auditEnv() {
		// Deep audit: re-validate the invariant catalogue after every
		// engine event.
		r.aud = audit.New()
		r.eng.SetCheck(func() { r.aud.Event(int64(r.eng.Now())) })
		// A released frame is never reissued, so a holder that forgot its
		// Hold trips the liveness assertions within one event.
		r.medium.Quarantine()
	}
	for i := range cfg.Positions {
		id := pkt.NodeID(i)
		env := forward.Env{
			Eng:    r.eng,
			Med:    r.medium,
			P:      cfg.Phy,
			ID:     id,
			RNG:    sim.NewRNG(cfg.Seed, 100+uint64(i)),
			Routes: r.routes,
			C:      &r.counters[i],
			Audit:  r.aud,
		}
		if rateOracle != nil {
			env.RateFor = func(to pkt.NodeID) float64 {
				return rateOracle.Rate(1 - cfg.Radio.LossProb(r.medium.Distance(id, to)))
			}
		}
		env.Deliver = func(p *pkt.Packet) {
			if ep, ok := r.endpoints[endpointKey{flow: p.FlowID, node: id}]; ok {
				p.MarkDelivered()
				ep.Receive(id, p)
			}
		}
		r.schemes[i] = newScheme(*cfg, env)
		r.medium.Attach(id, r.schemes[i])
	}
	return r
}

// newRateOracle resolves the multi-rate extension's per-link rate selector
// (nil when the extension is off).
func newRateOracle(cfg *Config) *rateadapt.OracleSelector {
	if !cfg.MultiRate.Enabled {
		return nil
	}
	rates := cfg.MultiRate.Rates
	if len(rates) == 0 {
		if cfg.Phy.DataBps > 100e6 {
			rates = rateadapt.SetWideband()
		} else {
			rates = rateadapt.Set80211a()
		}
	}
	o := rateadapt.NewOracle(rates, cfg.Phy.DataBps)
	if cfg.Radio.ShadowSigmaDB > 0 {
		o.SigmaDB = cfg.Radio.ShadowSigmaDB
	}
	if cfg.MultiRate.MinProb > 0 {
		o.MinProb = cfg.MultiRate.MinProb
	}
	return o
}

// traceFlow and traceStation report a run-level event through the frame
// hook, on a frame fabricated to carry the flow's endpoints or the station.
func (r *run) traceFlow(event string, f FlowSpec) {
	if r.cfg.Trace != nil {
		src, dst := f.Path.Src(), f.Path.Dst()
		r.cfg.Trace(r.eng.Now(), event, src, &pkt.Frame{
			Kind: pkt.Data, FlowID: f.ID,
			Tx: src, Origin: src, Rx: dst, FinalDst: dst,
		})
	}
}

func (r *run) traceStation(event string, id pkt.NodeID) {
	if r.cfg.Trace != nil {
		r.cfg.Trace(r.eng.Now(), event, id, &pkt.Frame{Tx: id, Origin: id})
	}
}

// armEpochs schedules the epoch-world swaps of a time-varying world: at
// each boundary the medium adopts the epoch's link plan (in-flight
// receptions keep their precomputed attributes; later transmissions see the
// new geometry), the policy becomes the epoch's, and flow routes take the
// epoch's precomputed resolution.
func (r *run) armEpochs() {
	world := r.world
	if len(world.epochs) == 0 {
		return
	}
	// With faults active, routes must be refreshed every epoch even under
	// static routing: the epoch worlds carry crash-masked paths, and the
	// Update also resets forwarder blacklists and consecutive-failure
	// streaks ("blacklisted until the next epoch").
	routeUpdates := r.cfg.Routing.active() || world.faults != nil
	next := 0
	r.epochTimer.Bind(r.eng, func() {
		ew := world.epochs[next]
		r.medium.SetPlan(ew.plan)
		r.policy = ew.policy
		if routeUpdates {
			for i, f := range r.cfg.Flows {
				r.routes.Update(f.ID, ew.routes[i])
			}
		}
		for i, f := range r.cfg.Flows {
			if ew.stale != nil && ew.stale[i] {
				// No silent fallback: a kept stale route is counted and
				// traced every epoch it persists.
				r.routeStale++
				r.traceFlow("route-stale", f)
			}
			if ew.unreach != nil && ew.unreach[i] != r.routes.Unreachable(f.ID) {
				r.routes.SetUnreachable(f.ID, ew.unreach[i])
				if ew.unreach[i] {
					r.traceFlow("unreachable", f)
				}
			}
		}
		next++
		if next < len(world.epochs) {
			r.epochTimer.Arm(world.epochLen)
		}
	})
	r.epochTimer.Arm(world.epochLen)
}

// armReroute schedules a dynamic policy's re-route tick: routes recomputed
// every epoch from observed queue depths. An instantaneous sample at the
// epoch boundary mostly sees drained queues (the MAC empties in bursts), so
// the congestion measure is the mean depth over several samples per epoch —
// the time-averaged backlog ORCD's analysis uses. A flow whose recompute
// fails under the current backlog keeps its previous route — transient
// congestion must not kill the flow.
func (r *run) armReroute() {
	if r.policy == nil || !r.policy.Dynamic() {
		return
	}
	epoch := r.cfg.Routing.Epoch
	if epoch <= 0 {
		epoch = DefaultRouteEpoch
	}
	interval := max(epoch/routeSamplesPerEpoch, 1)
	depthSum := make([]int, len(r.schemes))
	sampled := 0
	r.sampleTimer.Bind(r.eng, func() {
		for i, s := range r.schemes {
			depthSum[i] += s.QueueLen()
		}
		sampled++
		r.sampleTimer.Arm(interval)
	})
	r.sampleTimer.Arm(interval)
	backlog := func(n pkt.NodeID) int {
		if sampled == 0 {
			return r.schemes[n].QueueLen()
		}
		return depthSum[n] / sampled
	}
	r.rerouteTimer.Bind(r.eng, func() {
		for _, f := range r.cfg.Flows {
			p, err := r.policy.Route(f.Path.Src(), f.Path.Dst(), backlog)
			if err == nil {
				r.routes.Update(f.ID, p)
			}
		}
		clear(depthSum)
		sampled = 0
		r.rerouteTimer.Arm(epoch)
	})
	r.rerouteTimer.Arm(epoch)
}

// armFaults schedules the in-engine fault events: crashes and recoveries
// flip the medium's down mask and the scheme's state at their scheduled
// instants; noise bursts accumulate per-station SNR penalties. Link flaps
// and the partition have no events — the medium asks the schedule once per
// transmission whether the transmitter can be blocked at that instant, and
// per candidate receiver only when it can.
func (r *run) armFaults() {
	fs := r.world.faults
	if fs == nil {
		return
	}
	if fs.BlocksLinks() {
		r.medium.SetLinkBlocked(fs)
	}
	noiseNow := make([]float64, len(r.cfg.Positions))
	bursts := fs.Bursts()
	for _, ev := range fs.Events() {
		if ev.At >= r.cfg.Duration {
			continue
		}
		switch ev.Kind {
		case fault.StationDown:
			id := ev.Station
			r.eng.At(ev.At, func() {
				r.medium.SetDown(id, true)
				r.schemes[id].Crash()
				r.aud.StationDown(int(id))
				r.traceStation("station-down", id)
			})
		case fault.StationUp:
			id := ev.Station
			r.eng.At(ev.At, func() {
				r.medium.SetDown(id, false)
				r.schemes[id].Recover()
				r.aud.StationUp(int(id))
				r.traceStation("station-up", id)
			})
		case fault.NoiseOn, fault.NoiseOff:
			b := bursts[ev.Burst]
			delta := b.PenaltyDB
			if ev.Kind == fault.NoiseOff {
				delta = -delta
			}
			r.eng.At(ev.At, func() {
				for _, id := range b.Covered {
					noiseNow[id] += delta
					r.medium.SetNoiseDB(id, noiseNow[id])
				}
			})
		}
	}
}

// startFlows builds each flow's transport endpoints and traffic source and
// schedules its start.
func (r *run) startFlows() error {
	cfg, eng := r.cfg, r.eng
	r.flowStats = make([]*stats.Flow, len(cfg.Flows))
	for i, f := range cfg.Flows {
		fs := &stats.Flow{ID: f.ID}
		r.flowStats[i] = fs
		src, dst := f.Path.Src(), f.Path.Dst()
		sendSrc := r.schemes[src].Send
		sendDst := r.schemes[dst].Send
		switch f.Kind {
		case FTP, Web:
			tcpCfg := cfg.TCP
			if f.TCP != nil {
				tcpCfg = *f.TCP
			}
			conn := transport.NewTCP(eng, tcpCfg, f.ID, src, dst, sendSrc, sendDst, fs)
			conn.SetPool(r.pool)
			r.endpoints[endpointKey{f.ID, src}] = conn
			r.endpoints[endpointKey{f.ID, dst}] = conn
			if f.Kind == FTP {
				eng.At(f.Start, conn.Start)
			} else {
				webCfg := cfg.Web
				if f.Web != nil {
					webCfg = *f.Web
				}
				web := traffic.NewWeb(eng, webCfg, conn, tcpCfg.MSS, sim.NewRNG(cfg.Seed, 10000+uint64(f.ID)))
				eng.At(f.Start, web.Start)
			}
		case VoIPTraffic:
			voipCfg := cfg.VoIP
			if f.VoIP != nil {
				voipCfg = *f.VoIP
			}
			v := transport.NewVoIP(eng, voipCfg, f.ID, src, dst, sendSrc, fs,
				sim.NewRNG(cfg.Seed, 10000+uint64(f.ID)))
			v.SetPool(r.pool)
			r.endpoints[endpointKey{f.ID, dst}] = v
			eng.At(f.Start, v.Start)
		case CBRTraffic:
			// CBRInterval zero selects backlogged (saturating) mode.
			bytes := cfg.Phy.PacketBytes
			if f.CBRPacketBytes > 0 {
				bytes = f.CBRPacketBytes
			}
			c := transport.NewCBR(eng, f.ID, src, dst, bytes, f.CBRInterval, sendSrc, fs)
			c.SetPool(r.pool)
			r.endpoints[endpointKey{f.ID, dst}] = c
			eng.At(f.Start, c.Start)
		default:
			return fmt.Errorf("network: flow %d has unknown traffic kind %d", f.ID, f.Kind)
		}
	}
	return nil
}

// fold runs the end-of-run audit — the deep catalogue once more at
// quiescence, and the always-on conservation identities: every packet
// allocated must be delivered, dropped, or still held by a live reference,
// and every frame handed out recycled or still held — and collects the
// Result.
func (r *run) fold() *Result {
	cfg := r.cfg
	r.aud.AtDrain()
	gets, delivered, dropped := r.pool.Counters()
	audit.CheckPoolConservation(gets, delivered, dropped, r.pool.InUse())
	frameGets, frameRecycled := r.medium.Frames().Counters()
	audit.CheckFramePool(frameGets, frameRecycled, r.medium.Frames().InUse())

	res := &Result{Duration: cfg.Duration, Events: r.eng.Processed(),
		PendingAtEnd: r.eng.Pending(), Medium: r.medium.Counters}
	for i := range r.counters {
		res.MAC.Add(r.counters[i])
	}
	res.RouteStale = r.routeStale
	res.Unreachable = res.MAC.Unreachable
	res.PoolInUse = r.pool.InUse()
	tputs := make([]float64, 0, len(cfg.Flows))
	for i, f := range cfg.Flows {
		fs := r.flowStats[i]
		fr := FlowResult{
			ID:             f.ID,
			Kind:           f.Kind,
			ThroughputMbps: fs.ThroughputMbps(cfg.Duration),
			MeanDelay:      fs.MeanDelay(),
			ReorderRate:    fs.ReorderRate(),
			PktsDelivered:  fs.PktsDelivered,
			Transfers:      fs.TransfersCompleted,
			Unreachable:    r.routes.UnreachableDrops(f.ID),
		}
		if f.Kind == VoIPTraffic {
			fr.LossRate = fs.VoIPLossRate()
			fr.MoS = stats.MoSFrom(fs.MeanDelay().Milliseconds(), fr.LossRate)
		}
		res.TotalMbps += fr.ThroughputMbps
		res.Flows = append(res.Flows, fr)
		tputs = append(tputs, fr.ThroughputMbps)
	}
	res.Fairness = stats.JainIndex(tputs)
	return res
}
