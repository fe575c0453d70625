package network

import (
	"fmt"
	"runtime"
	"sync"

	"ripple/internal/audit"
	"ripple/internal/core"
	"ripple/internal/fault"
	"ripple/internal/forward"
	"ripple/internal/phys"
	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
	"ripple/internal/stats"
	"ripple/internal/traffic"
	"ripple/internal/transport"
)

// endpoint is where one stream's packets are handed to transport: the
// receiver, at the station the stream ends at.
type endpoint struct {
	node pkt.NodeID
	recv receiver
}

type receiver interface {
	Receive(at pkt.NodeID, p *pkt.Packet)
}

// arena is what a run keeps for the next one: every structure a run is
// assembled from that is not the shared World, grown to the largest run it
// has served and never shrunk. Each part empties itself by the same rule —
// zero the struct, then restore only the capacity it names — so that a field
// added later starts every run at zero without anyone remembering the arena:
// the engine, the medium, the packet pool and the route book when a run ends
// (run.reset), because they hold what the caller lent (the World's link plan
// and paths, the trace hook) and the records the run left out of their free
// lists; the slab elements when the next run initialises them in place
// (Init), because only then is it known which of them the run uses.
type arena struct {
	eng    sim.Engine
	medium radio.Medium
	// routes is per-run mutable state (epoch swaps and dynamic policies
	// rewrite it); it starts from the World's resolved initial routes.
	routes forward.RouteBook
	// pool is the run's one packet pool: transports draw from it, and the
	// MAC layer recycles packets at their terminal delivery/drop points, so
	// the steady-state packet path allocates nothing.
	pool pkt.Pool

	// One agent slab per chassis type — the run's scheme initialises the
	// first len(Positions) elements of one of them — and what every station
	// has whatever its agent: counters, backoff stream, and the two hooks
	// the layers above and below reach it through.
	ripples   []core.Ripple
	unicasts  []forward.Unicast
	exors     []forward.ExOR
	schemes   []forward.Scheme
	counters  []forward.Counters
	rngs      []sim.RNG
	shadowing sim.RNG // the medium's stream
	deliver   []func(*pkt.Packet)
	send      []transport.SendFunc

	// Per flow: the endpoint of each of its two streams (indexed by
	// pkt.Packet.Stream), statistics, traffic stream, and the transport and
	// traffic source slabs by kind.
	endpoints []endpoint
	flowStats []stats.Flow
	flowRNGs  []sim.RNG
	tcps      []transport.TCP
	webs      []traffic.Web
	voips     []transport.VoIP
	cbrs      []transport.CBR
	starts    []flowStart
	tputs     []float64 // fold's scratch
}

// flowStart is the event of one flow's start, scheduled with Engine.Do: a
// slab element where an After call would allocate an event and a closure.
type flowStart struct{ source interface{ Start() } }

func (s *flowStart) Run() { s.source.Start() }

// run is one simulation run on its arena, over a shared read-only World:
// everything here is private to the run, everything reached through world is
// not written. The fields below the arena are the run's own and start zero.
type run struct {
	arena
	cfg   *Config
	world *World
	// policy is the current world's: the root's, then each epoch's.
	policy routing.Policy
	// aud stays nil with deep auditing off — every hook nil-checks, so the
	// fast path pays only predictable branches.
	aud *audit.Auditor
	// routeStale counts, over every epoch boundary, the flows that kept a
	// stale route because their recompute failed.
	routeStale uint64
	// The run's periodic timers, each re-armed from its own callback: the
	// epoch-world swap, and a dynamic policy's queue-depth sample and
	// re-route tick.
	epochTimer, sampleTimer, rerouteTimer sim.Timer
}

// arenas caches the arenas of finished runs, process-wide: Run takes the one
// put back last and puts it back empty. Which arena a run gets depends on
// nothing but the order of the calls — not on the P the caller is scheduled
// on, not on when the collector last ran — so a caller that runs one scenario
// after another is handed the same arena every time and a pool of n workers
// shares n: what a run allocates does not vary from one process to the next.
// At most GOMAXPROCS arenas idle; one put back beyond that is the
// collector's, and the rest live as long as the process.
var arenas struct {
	sync.Mutex
	idle sim.FreeList[run]
}

// takeArena returns the idle arena put back last, or a new one.
func takeArena() *run {
	arenas.Lock()
	r := arenas.idle.Get()
	arenas.Unlock()
	if r == nil {
		r = new(run)
	}
	return r
}

// keepArena puts an emptied arena back for the next run.
func keepArena(r *run) {
	arenas.Lock()
	if arenas.idle.Len() < runtime.GOMAXPROCS(0) {
		arenas.idle.Put(r)
	}
	arenas.Unlock()
}

// Run executes one scenario to completion and returns its results. When
// cfg.World is set, the run executes on that shared snapshot (reading it
// only); otherwise it builds a private one. Either way the results are
// bit-identical for a given Config — and whichever arena the run is
// assembled on, a new one or one that has served other scenarios.
func Run(cfg Config) (*Result, error) {
	world, err := prepare(&cfg)
	if err != nil {
		return nil, err
	}
	r := takeArena()
	res := r.execute(&cfg, world)
	// A run that panics leaves its arena to the collector (the campaign pool
	// recovers and carries on): whatever state it died in, no other run
	// sees it.
	keepArena(r)
	return res, nil
}

// prepare normalises and validates cfg and returns the World to run it on.
func prepare(cfg *Config) (*World, error) {
	cfg.Normalize()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if cfg.World == nil {
		return BuildWorld(*cfg)
	}
	return cfg.World, cfg.World.check(cfg)
}

// execute runs cfg, which Validate accepted, on world on an empty arena — a
// new one, or one execute has returned from — and leaves it empty.
//
// The phases schedule their first events in a fixed order — epoch swap,
// re-route tick, fault events, flow starts — and events at equal
// timestamps fire in scheduling order, so at a shared boundary the
// re-route already sees the new world. Everything then runs inside the
// engine's single-threaded loop, so results are bit-identical at any pool
// parallelism.
func (r *run) execute(cfg *Config, world *World) *Result {
	r.build(cfg, world)
	r.armEpochs()
	r.armReroute()
	r.armFaults()
	r.startFlows()
	r.eng.Run(cfg.Duration)
	res := r.fold()
	r.reset()
	return res
}

// reset empties the arena after a run: the engine drops or recycles every
// pending entry, the medium and the pool recall what is out of their free
// lists, the route book forgets the World's paths, and the run's own fields
// go back to zero — what the arena keeps is the one field named here.
func (r *run) reset() {
	r.eng.Reset()
	r.medium.Reset()
	r.pool.Reset()
	r.routes.Init(0)
	clear(r.endpoints)
	r.endpoints = r.endpoints[:0]
	*r = run{arena: r.arena}
}

// grown returns s with length n: resliced when its array is large enough —
// the elements keep what they hold, to be initialised in place — and a new
// zero slab otherwise.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// A run's random draws come from disjoint streams of the run's seed:
// stream 1 is the shadowing, stationStream(i) station i's backoff and
// flowStream(n, id) a Web or VoIP flow's traffic in a world of n stations.

// stationStream is the RNG stream of station i's backoff draws.
func stationStream(i int) uint64 { return 100 + uint64(i) }

// flowStream is the RNG stream of the traffic draws of the flow with ID id
// in a world of n stations (validate refuses a negative ID on a flow that
// draws from it): counted from 10000, or from just past the last station's
// stream in a world of more than 9,900 stations, so no station replays a
// flow's draws.
func flowStream(n, id int) uint64 { return max(10000, stationStream(n)) + uint64(id) }

// build is the build phase: medium, route book, auditor and one
// forwarding-scheme agent per station, each initialised in place.
func (r *run) build(cfg *Config, world *World) {
	r.cfg, r.world, r.policy = cfg, world, world.policy
	n := len(cfg.Positions)
	r.shadowing.Seed(cfg.Seed, 1)
	r.medium.Init(&r.eng, world.plan, cfg.Phy, &r.shadowing)
	r.medium.Trace = cfg.Trace
	r.routes.Init(cfg.MaxForwarders)
	for i := range cfg.Flows {
		r.routes.Add(i, world.routes[i])
	}
	if world.faults != nil {
		// Graceful degradation: consecutive delivery failures to a forwarder
		// blacklist it until the next epoch's route update.
		r.routes.EnableFailureDetection(world.faults.Threshold())
	}
	if cfg.Audit || auditEnv() {
		// Deep audit: re-validate the invariant catalogue after every
		// engine event.
		r.aud = audit.New()
		r.eng.SetCheck(func() { r.aud.Event(int64(r.eng.Now())) })
		// A released frame is never reissued, so a holder that forgot its
		// Hold trips the liveness assertions within one event.
		r.medium.Quarantine()
	}
	r.schemes = grown(r.schemes, n)
	r.counters = grown(r.counters, n)
	clear(r.counters)
	r.rngs = grown(r.rngs, n)
	r.sizeAgents(n)
	for i := len(r.deliver); i < n; i++ {
		// A station's two hooks depend on the arena and the station's ID
		// alone, so they are made once and serve every run.
		id := pkt.NodeID(i)
		r.deliver = append(r.deliver, func(p *pkt.Packet) {
			if ep := r.endpoints[p.Stream]; ep.recv != nil && ep.node == id {
				p.MarkDelivered()
				ep.recv.Receive(id, p)
			}
		})
		r.send = append(r.send, func(p *pkt.Packet) bool { return r.schemes[id].Send(p) })
	}
	for i := range cfg.Positions {
		id := pkt.NodeID(i)
		r.rngs[i].Seed(cfg.Seed, stationStream(i))
		env := forward.Env{
			Eng:     &r.eng,
			Med:     &r.medium,
			P:       cfg.Phy,
			ID:      id,
			RNG:     &r.rngs[i],
			Routes:  &r.routes,
			Deliver: r.deliver[i],
			C:       &r.counters[i],
			Audit:   r.aud,
		}
		if cfg.MultiRate {
			env.RateFor = func(to pkt.NodeID) float64 {
				return phys.OracleRate(1-cfg.Radio.LossProb(r.medium.Distance(id, to)), cfg.Radio.ShadowSigmaDB, cfg.Phy)
			}
		}
		r.schemes[i] = r.agent(env)
		r.medium.Attach(id, r.schemes[i])
	}
}

// sizeAgents makes room for n agents in the slab of cfg.Scheme's chassis.
func (r *run) sizeAgents(n int) {
	switch r.cfg.Scheme {
	case DCF, AFR:
		r.unicasts = grown(r.unicasts, n)
	case PreExOR, MCExOR:
		r.exors = grown(r.exors, n)
	case Ripple, RippleNoAgg:
		r.ripples = grown(r.ripples, n)
	}
}

// agent initialises station env.ID's agent for cfg.Scheme, in its slab.
func (r *run) agent(env forward.Env) forward.Scheme {
	cfg := r.cfg
	switch cfg.Scheme {
	case DCF:
		u := &r.unicasts[env.ID]
		u.Init(env, 1, cfg.RTSThreshold)
		return u
	case AFR:
		agg := cfg.UnicastMaxAgg
		if v, ok := cfg.NodeMaxAgg[env.ID]; ok {
			agg = v
		}
		u := &r.unicasts[env.ID]
		u.Init(env, agg, cfg.RTSThreshold)
		return u
	case PreExOR, MCExOR:
		x := &r.exors[env.ID]
		x.Init(env, cfg.Scheme == MCExOR)
		return x
	case Ripple, RippleNoAgg:
		opt := cfg.RippleOpts
		if v, ok := cfg.NodeMaxAgg[env.ID]; ok {
			opt.MaxAgg = v
		}
		if cfg.Scheme == RippleNoAgg {
			opt.MaxAgg = 1
		}
		a := &r.ripples[env.ID]
		a.Init(env, opt)
		return a
	default:
		// Validate runs first; reaching this is a programming error.
		panic(fmt.Sprintf("network: unknown scheme %d", int(cfg.Scheme)))
	}
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
	// static routing: the epoch worlds carry crash-masked paths, and
	// re-adding a route also resets forwarder blacklists and
	// consecutive-failure streaks ("blacklisted until the next epoch").
	routeUpdates := r.cfg.Routing.active() || world.faults != nil
	next := 0
	r.epochTimer.Bind(&r.eng, func() {
		ew := world.epochs[next]
		r.medium.SetPlan(ew.plan)
		r.policy = ew.policy
		if routeUpdates {
			for i := range r.cfg.Flows {
				r.routes.Add(i, ew.routes[i])
			}
		}
		for i, f := range r.cfg.Flows {
			if ew.stale != nil && ew.stale[i] {
				// No silent fallback: a kept stale route is counted and
				// traced every epoch it persists.
				r.routeStale++
				r.traceFlow("route-stale", f)
			}
			if ew.unreach != nil && ew.unreach[i] != r.routes.Unreachable(i) {
				r.routes.SetUnreachable(i, ew.unreach[i])
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
	if r.policy == nil {
		return // a world keeps its policy only when it is dynamic
	}
	epoch := r.cfg.Routing.Epoch
	if epoch <= 0 {
		epoch = DefaultRouteEpoch
	}
	interval := max(epoch/routeSamplesPerEpoch, 1)
	depthSum := make([]int, len(r.schemes))
	sampled := 0
	r.sampleTimer.Bind(&r.eng, func() {
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
	r.rerouteTimer.Bind(&r.eng, func() {
		for i, f := range r.cfg.Flows {
			p, err := r.policy.Route(f.Path.Src(), f.Path.Dst(), backlog)
			if err == nil {
				r.routes.Add(i, p)
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

// startFlows initialises each flow's transport endpoints and traffic source,
// in the slab of its kind, and schedules its start.
func (r *run) startFlows() {
	cfg, eng := r.cfg, &r.eng
	var nTCP, nWeb, nVoIP, nCBR int
	for _, f := range cfg.Flows {
		switch f.Kind {
		case FTP:
			nTCP++
		case Web:
			nTCP++
			nWeb++
		case VoIPTraffic:
			nVoIP++
		case CBRTraffic:
			nCBR++
		}
	}
	r.tcps, r.webs = grown(r.tcps, nTCP), grown(r.webs, nWeb)
	r.voips, r.cbrs = grown(r.voips, nVoIP), grown(r.cbrs, nCBR)
	r.flowStats = grown(r.flowStats, len(cfg.Flows))
	r.flowRNGs = grown(r.flowRNGs, len(cfg.Flows))
	r.starts = grown(r.starts, len(cfg.Flows))
	r.endpoints = grown(r.endpoints, 2*len(cfg.Flows))
	nTCP, nWeb, nVoIP, nCBR = 0, 0, 0, 0
	for i, f := range cfg.Flows {
		fs := &r.flowStats[i]
		*fs = stats.Flow{ID: f.ID}
		src, dst := f.Path.Src(), f.Path.Dst()
		// The flow's traffic stream, for the kinds that draw from one.
		rng := &r.flowRNGs[i]
		start := &r.starts[i]
		switch f.Kind {
		case FTP, Web:
			tcpCfg := transport.DefaultTCPConfig()
			if f.TCP != nil {
				tcpCfg = *f.TCP
			}
			conn := &r.tcps[nTCP]
			nTCP++
			conn.Init(eng, tcpCfg, f.ID, src, dst, r.send[src], r.send[dst], fs)
			conn.SetPool(&r.pool)
			conn.SetSlot(i)
			r.endpoints[pkt.StreamOf(i, 0)] = endpoint{dst, conn}
			r.endpoints[pkt.StreamOf(i, 1)] = endpoint{src, conn}
			if f.Kind == FTP {
				start.source = conn
			} else {
				webCfg := traffic.DefaultWebConfig()
				if f.Web != nil {
					webCfg = *f.Web
				}
				web := &r.webs[nWeb]
				nWeb++
				rng.Seed(cfg.Seed, flowStream(len(cfg.Positions), f.ID))
				web.Init(eng, webCfg, conn, tcpCfg.MSS, rng)
				start.source = web
			}
		case VoIPTraffic:
			voipCfg := transport.DefaultVoIPConfig()
			if f.VoIP != nil {
				voipCfg = *f.VoIP
			}
			v := &r.voips[nVoIP]
			nVoIP++
			rng.Seed(cfg.Seed, flowStream(len(cfg.Positions), f.ID))
			v.Init(eng, voipCfg, f.ID, src, dst, r.send[src], fs, rng)
			v.SetPool(&r.pool)
			v.SetSlot(i)
			r.endpoints[pkt.StreamOf(i, 0)] = endpoint{dst, v}
			start.source = v
		case CBRTraffic:
			// CBRInterval zero selects backlogged (saturating) mode.
			bytes := cfg.Phy.PacketBytes
			if f.CBRPacketBytes > 0 {
				bytes = f.CBRPacketBytes
			}
			c := &r.cbrs[nCBR]
			nCBR++
			c.Init(eng, f.ID, src, dst, bytes, f.CBRInterval, r.send[src], fs)
			c.SetPool(&r.pool)
			c.SetSlot(i)
			r.endpoints[pkt.StreamOf(i, 0)] = endpoint{dst, c}
			start.source = c
		}
		eng.Do(f.Start, start)
	}
}

// fold runs the end-of-run audit — the deep catalogue once more at
// quiescence, and the always-on conservation identities: every packet
// allocated must be delivered, dropped, or still held by a live reference,
// and every frame handed out recycled or still held — and collects the
// Result, which shares nothing with the arena.
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
	res.Flows = make([]FlowResult, 0, len(cfg.Flows))
	r.tputs = r.tputs[:0]
	for i, f := range cfg.Flows {
		fs := &r.flowStats[i]
		fr := FlowResult{
			ID:             f.ID,
			Kind:           f.Kind,
			ThroughputMbps: fs.ThroughputMbps(cfg.Duration),
			MeanDelay:      fs.MeanDelay(),
			ReorderRate:    fs.ReorderRate(),
			PktsDelivered:  fs.PktsDelivered,
			Transfers:      fs.TransfersCompleted,
			Unreachable:    r.routes.UnreachableDrops(i),
		}
		if f.Kind == VoIPTraffic {
			fr.LossRate = fs.VoIPLossRate()
			fr.MoS = stats.MoSFrom(fs.MeanDelay().Milliseconds(), fr.LossRate)
		}
		res.TotalMbps += fr.ThroughputMbps
		res.Flows = append(res.Flows, fr)
		r.tputs = append(r.tputs, fr.ThroughputMbps)
	}
	res.Fairness = stats.JainIndex(r.tputs)
	return res
}
