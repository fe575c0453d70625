package network

import (
	"testing"

	"ripple/internal/fault"
	"ripple/internal/forward"
	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

// allKinds is every SchemeKind the station lifecycle must hold for.
var allKinds = []SchemeKind{DCF, AFR, PreExOR, MCExOR, Ripple, RippleNoAgg}

// silentMAC is a station that only ever transmits what the test hands the
// medium (the jammer of the recover-on-busy case).
type silentMAC struct{}

func (silentMAC) TxDone(*pkt.Frame)                { /* nothing to follow up */ }
func (silentMAC) FrameReceived(*pkt.Frame, []bool) { /* never a receiver */ }
func (silentMAC) FrameCorrupted()                  { /* no contender to tell */ }
func (silentMAC) ChannelBusy()                     { /* no contender to tell */ }
func (silentMAC) ChannelIdle()                     { /* no contender to tell */ }

// lifecycleRig is a 3-hop-capable line (stations 0..2 run the scheme under
// test, initialised in an arena's agent slab as Run's are, station 3 is a
// silent jammer) on an ideal radio, with packets drawn from a real pool so
// custody is countable. It reaches the schemes only through forward.Scheme,
// so it holds for any station implementation behind run.agent.
type lifecycleRig struct {
	eng      *sim.Engine
	med      *radio.Medium
	pool     *pkt.Pool
	schemes  []forward.Scheme
	counters []forward.Counters
	uid      uint64
}

const lifecycleJammer = 3

func newLifecycleRig(kind SchemeKind) *lifecycleRig {
	top, path := topology.Line(3)
	cfg := Config{Scheme: kind, Radio: noLossRadio()}
	cfg.Normalize()
	r := &lifecycleRig{eng: sim.NewEngine(), pool: &pkt.Pool{}}
	r.med = radio.NewMediumOn(r.eng, radio.NewLinkPlan(cfg.Radio, top.Positions), cfg.Phy, sim.NewRNG(1, 1))
	routes := forward.NewRouteBook(cfg.MaxForwarders)
	routes.Add(0, path[:3]) // flow 1 is the rig's only flow: slot 0
	r.schemes = make([]forward.Scheme, 3)
	r.counters = make([]forward.Counters, 3)
	agents := &run{cfg: &cfg}
	agents.sizeAgents(3)
	for i := range r.schemes {
		var mac radio.MAC
		r.schemes[i], mac = agents.agent(forward.Env{
			Eng: r.eng, Med: r.med, P: cfg.Phy, ID: pkt.NodeID(i),
			RNG: sim.NewRNG(7, 100+uint64(i)), Routes: routes, C: &r.counters[i],
			Deliver: func(p *pkt.Packet) { p.MarkDelivered() },
		})
		r.med.Attach(pkt.NodeID(i), mac)
	}
	r.med.Attach(lifecycleJammer, silentMAC{})
	return r
}

// packet draws one flow-1 packet (0 → 2, stream 0) from the pool.
func (r *lifecycleRig) packet() *pkt.Packet {
	r.uid++
	p := r.pool.Get()
	p.UID, p.FlowID, p.Seq = 1<<32|r.uid, 1, int64(r.uid)
	p.Bytes, p.Src, p.Dst, p.Created = 1000, 0, 2, r.eng.Now()
	return p
}

func forEachKind(t *testing.T, fn func(t *testing.T, kind SchemeKind)) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) { fn(t, kind) })
	}
}

// Send on a crashed station is a terminal drop: false, one CrashDrop, the
// caller's reference returned to the pool. Crash and Recover are
// idempotent, and a twice-recovered station still carries traffic.
func TestLifecycleSendWhileDownAndIdempotence(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind SchemeKind) {
		r := newLifecycleRig(kind)
		src := r.schemes[0]
		for i := 0; i < 3; i++ {
			if !src.Send(r.packet()) {
				t.Fatal("Send on a live station with an empty queue failed")
			}
		}
		src.Crash()
		if got := r.counters[0].CrashDrops; got != 3 {
			t.Fatalf("CrashDrops = %d after crashing with 3 queued, want 3", got)
		}
		src.Crash() // idempotent: nothing left to release, nothing recounted
		if got := r.counters[0].CrashDrops; got != 3 {
			t.Fatalf("second Crash moved CrashDrops to %d", got)
		}
		if src.QueueLen() != 0 || r.pool.InUse() != 0 {
			t.Fatalf("crashed station still holds packets: QueueLen %d, pool InUse %d",
				src.QueueLen(), r.pool.InUse())
		}
		if src.Send(r.packet()) {
			t.Fatal("Send on a down station reported success")
		}
		if got := r.counters[0].CrashDrops; got != 4 {
			t.Fatalf("CrashDrops = %d after Send on a down station, want 4", got)
		}
		if r.pool.InUse() != 0 {
			t.Fatalf("Send on a down station kept the packet: pool InUse %d", r.pool.InUse())
		}
		r.eng.Run(5 * sim.Millisecond)
		if got := r.counters[0].TxFrames; got != 0 {
			t.Fatalf("down station transmitted %d frames", got)
		}
		src.Recover()
		src.Recover()
		src.Send(r.packet())
		r.eng.Run(50 * sim.Millisecond)
		_, delivered, _ := r.pool.Counters()
		if delivered != 1 || r.pool.InUse() != 0 {
			t.Fatalf("after Recover: %d packets delivered (want 1), pool InUse %d",
				delivered, r.pool.InUse())
		}
	})
}

// Crash mid-exchange: the source holds a queue plus an in-service batch and
// the forwarder holds the overheard frame in relay / pending-ACK custody
// (its queue, for the store-and-forward kinds). Every station's CrashDrops
// equals exactly what it held, and once the air drains the pool is empty.
func TestLifecycleCrashMidExchangeReleasesAllCustody(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind SchemeKind) {
		r := newLifecycleRig(kind)
		const injected = 20
		for i := 0; i < injected; i++ {
			r.schemes[0].Send(r.packet())
		}
		opportunistic := kind != DCF && kind != AFR
		crashed := false
		r.med.Trace = func(_ sim.Time, ev string, node pkt.NodeID, f *pkt.Frame) {
			if crashed || ev != "rx" || node != 1 || f.Kind != pkt.Data {
				return
			}
			crashed = true
			carried := len(f.Packets) // f itself is valid only during this call
			// Same instant, after the reception upcall: the forwarder has the
			// frame, and no relay, ACK or custody decision has fired yet.
			r.eng.After(0, func() {
				held := []int{r.schemes[0].QueueLen(), r.schemes[1].QueueLen(), r.schemes[2].QueueLen()}
				if held[0] != injected {
					t.Errorf("source holds %d before its first ACK, want %d", held[0], injected)
				}
				if opportunistic {
					held[1] += carried // armed relay / pending-ACK custody
				}
				if held[1] == 0 {
					t.Error("forwarder holds nothing: the crash would not be mid-custody")
				}
				for i, s := range r.schemes {
					s.Crash()
					if got := r.counters[i].CrashDrops; got != uint64(held[i]) {
						t.Errorf("station %d: CrashDrops = %d, held %d", i, got, held[i])
					}
				}
			})
		}
		r.eng.Run(100 * sim.Millisecond)
		if !crashed {
			t.Fatal("the forwarder never decoded a data frame")
		}
		if r.pool.InUse() != 0 {
			t.Fatalf("pool InUse = %d after every station crashed and the air drained", r.pool.InUse())
		}
		gets, delivered, dropped := r.pool.Counters()
		if gets != injected || delivered+dropped != injected {
			t.Fatalf("conservation broken: %d gets, %d delivered + %d dropped", gets, delivered, dropped)
		}
	})
}

// Carrier transitions during an outage are lost to the down guards, so
// Recover must resynchronise with the medium: a station that reboots into a
// busy channel stays frozen until the channel goes idle.
func TestLifecycleRecoverOnBusyMediumStaysFrozen(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind SchemeKind) {
		r := newLifecycleRig(kind)
		src := r.schemes[0]
		src.Crash()
		const jamStart, jamLen = 10 * sim.Microsecond, 3 * sim.Millisecond
		r.eng.At(jamStart, func() {
			r.med.Transmit(&pkt.Frame{Kind: pkt.Data, Tx: lifecycleJammer, Rx: pkt.Broadcast,
				Origin: lifecycleJammer, FinalDst: pkt.Broadcast, Duration: jamLen})
		})
		r.eng.At(100*sim.Microsecond, func() {
			if !r.med.CarrierBusy(0) {
				t.Error("precondition: the jammer is not sensed at station 0")
			}
			src.Recover()
			src.Send(r.packet())
		})
		// Longer than DIFS plus the largest initial backoff: a contender that
		// believed the channel idle would have transmitted by now.
		r.eng.Run(jamStart + jamLen - sim.Microsecond)
		if got := r.counters[0].TxFrames; got != 0 {
			t.Fatalf("station transmitted %d frames into a busy channel after Recover", got)
		}
		r.eng.Run(jamStart + jamLen + 5*sim.Millisecond)
		if r.counters[0].TxFrames == 0 {
			t.Fatal("station never transmitted after the channel went idle")
		}
	})
}

// churnConfig is the pinned churn run: a five-hop line on a shadowed radio,
// FTP one way and paced CBR the other, stations crashing every 150 ms.
func churnConfig(kind SchemeKind) Config {
	top, path := topology.Line(5)
	back := make([]pkt.NodeID, len(path))
	for i, n := range path {
		back[len(path)-1-i] = n
	}
	rc := radio.DefaultConfig()
	rc.ShadowSigmaDB = 3
	rc.RXThreshDBm = rc.MeanRxPowerDBm(150)
	rc.CSThreshDBm = rc.RXThreshDBm - 13
	return Config{
		Positions: top.Positions,
		Radio:     rc,
		Scheme:    kind,
		Flows: []FlowSpec{
			{ID: 1, Path: path, Kind: FTP},
			{ID: 2, Path: back, Kind: CBRTraffic, CBRInterval: 4 * sim.Millisecond, CBRPacketBytes: 500},
		},
		Faults:   fault.Spec{MTBF: 150 * sim.Millisecond, MTTR: 50 * sim.Millisecond, Epoch: 100 * sim.Millisecond},
		Duration: 4 * sim.Second,
		Seed:     5,
	}
}

// TestLifecycleChurnRunPinned holds one whole churn run per kind to its pin,
// so a refactor of the crash paths is held to identity, not to "no panic".
func TestLifecycleChurnRunPinned(t *testing.T) { runPins(t, "churn") }

// crashExercised checks that the run is worth pinning: churn caught a
// station holding packets, so the crash path ran.
func crashExercised(t *testing.T, _ Config, res *Result) {
	if res.MAC.CrashDrops == 0 {
		t.Fatal("churn never caught a station holding packets: the crash path is not exercised")
	}
}
