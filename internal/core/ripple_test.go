package core

import (
	"testing"

	"ripple/internal/forward"
	"ripple/internal/phys"
	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
)

// harness wires real engine + medium + one Ripple per station.
type harness struct {
	eng       *sim.Engine
	med       *radio.Medium
	agents    []*Ripple
	counters  []forward.Counters
	delivered [][]*pkt.Packet
	frames    []pkt.Frame // all transmissions, copied out of the medium trace
	paths     map[int]routing.Path
}

func idealRadio() radio.Config {
	c := radio.DefaultConfig()
	c.ShadowSigmaDB = 0
	c.BitErrorRate = 0
	return c
}

func newHarness(t *testing.T, positions []radio.Pos, rc radio.Config,
	paths map[int]routing.Path, opt Options) *harness {
	t.Helper()
	h := &harness{eng: sim.NewEngine(), paths: paths}
	h.med = radio.NewMediumOn(h.eng, radio.NewLinkPlan(rc, positions), phys.Default(), sim.NewRNG(1, 1))
	h.med.Trace = func(_ sim.Time, ev string, node pkt.NodeID, f *pkt.Frame) {
		if ev == "tx" {
			// The frame is valid only during the call: it is recycled once
			// it has left the air.
			c := *f
			c.Packets = append([]*pkt.Packet(nil), f.Packets...)
			h.frames = append(h.frames, c)
		}
	}
	// A flow's ID doubles as its slot in the route book.
	routes := forward.NewRouteBook(5)
	for id, p := range paths {
		routes.Add(id, p)
	}
	h.agents = make([]*Ripple, len(positions))
	h.counters = make([]forward.Counters, len(positions))
	h.delivered = make([][]*pkt.Packet, len(positions))
	for i := range positions {
		i := i
		env := forward.Env{
			Eng:    h.eng,
			Med:    h.med,
			P:      phys.Default(),
			ID:     pkt.NodeID(i),
			RNG:    sim.NewRNG(9, 100+uint64(i)),
			Routes: routes,
			C:      &h.counters[i],
			Deliver: func(p *pkt.Packet) {
				h.delivered[i] = append(h.delivered[i], p)
			},
		}
		h.agents[i] = new(Ripple)
		h.agents[i].Init(env, opt)
		h.med.Attach(pkt.NodeID(i), h.agents[i])
	}
	return h
}

func (h *harness) inject(from pkt.NodeID, flow, n int, dst pkt.NodeID) {
	for k := 0; k < n; k++ {
		p := &pkt.Packet{
			UID: uint64(flow)<<32 | uint64(k) + 1, FlowID: flow,
			Stream: h.stream(flow, from),
			Seq:    int64(k), Bytes: 1000, Src: from, Dst: dst,
			Created: h.eng.Now(),
		}
		h.agents[from].Send(p)
	}
}

// stream is the stream of flow's packets sent from `from`: forward from the
// path's source, reverse from anywhere else.
func (h *harness) stream(flow int, from pkt.NodeID) int32 {
	if from == h.paths[flow].Src() {
		return pkt.StreamOf(flow, 0)
	}
	return pkt.StreamOf(flow, 1)
}

func linePositions(n int) []radio.Pos {
	out := make([]radio.Pos, n)
	for i := range out {
		out[i] = radio.Pos{X: float64(i * 100)}
	}
	return out
}

func TestRippleEndToEndDelivery(t *testing.T) {
	paths := map[int]routing.Path{1: {0, 1, 2, 3}}
	h := newHarness(t, linePositions(4), idealRadio(), paths, Options{})
	h.inject(0, 1, 32, 3)
	h.eng.Run(100 * sim.Millisecond)
	if got := len(h.delivered[3]); got != 32 {
		t.Fatalf("delivered %d packets, want 32", got)
	}
	for i, p := range h.delivered[3] {
		if p.MacSeq != int64(i) {
			t.Fatalf("Rq order broken at %d: %v", i, p.MacSeq)
		}
	}
}

func TestRippleAggregatesSixteen(t *testing.T) {
	paths := map[int]routing.Path{1: {0, 1, 2, 3}}
	h := newHarness(t, linePositions(4), idealRadio(), paths, Options{})
	h.inject(0, 1, 16, 3)
	h.eng.Run(100 * sim.Millisecond)
	if h.counters[0].TxData != 1 {
		t.Fatalf("source sent %d frames for 16 packets, want 1 aggregate", h.counters[0].TxData)
	}
}

// TestRippleOpportunisticSkip verifies the core mTXOP behaviour: with zero
// shadowing, station 2 (200 m) decodes the source's frame directly and
// relays first; station 1's lower-priority timer is cancelled by the
// sensed carrier, so station 1 never transmits a data relay.
func TestRippleOpportunisticSkip(t *testing.T) {
	paths := map[int]routing.Path{1: {0, 1, 2, 3}}
	h := newHarness(t, linePositions(4), idealRadio(), paths, Options{})
	h.inject(0, 1, 4, 3)
	h.eng.Run(50 * sim.Millisecond)
	if len(h.delivered[3]) != 4 {
		t.Fatalf("delivered %d", len(h.delivered[3]))
	}
	for _, f := range h.frames {
		if f.Kind == pkt.Data && f.Tx == 1 {
			t.Fatal("station 1 relayed data despite station 2's higher priority")
		}
	}
	if h.counters[1].RelayCancels == 0 {
		t.Fatal("station 1 should have cancelled its relay timer")
	}
}

// TestRippleRelayChainWhenFarLinkFails forces the full hop-by-hop chain by
// spacing stations so only adjacent links decode (the Fig. 2 walkthrough).
func TestRippleRelayChainWhenFarLinkFails(t *testing.T) {
	// 180 m spacing: adjacent 180 m < 258 m decodes; 360 m does not.
	positions := []radio.Pos{{X: 0}, {X: 180}, {X: 360}, {X: 540}}
	paths := map[int]routing.Path{1: {0, 1, 2, 3}}
	h := newHarness(t, positions, idealRadio(), paths, Options{})
	h.inject(0, 1, 4, 3)
	h.eng.Run(100 * sim.Millisecond)
	if len(h.delivered[3]) != 4 {
		t.Fatalf("delivered %d packets, want 4", len(h.delivered[3]))
	}
	// Both forwarders must have relayed data (hop-by-hop chain).
	dataTx := map[pkt.NodeID]bool{}
	for _, f := range h.frames {
		if f.Kind == pkt.Data {
			dataTx[f.Tx] = true
		}
	}
	if !dataTx[1] || !dataTx[2] {
		t.Fatalf("relay chain incomplete: data transmitters %v", dataTx)
	}
	if h.counters[1].Relays == 0 || h.counters[2].Relays == 0 {
		t.Fatalf("relay counters = %d/%d, want both > 0",
			h.counters[1].Relays, h.counters[2].Relays)
	}
}

// TestRippleNoForwarderCaching: a forwarder that misses its relay window
// (carrier sensed) must not retransmit later — retransmission is end-to-end
// from the source only.
func TestRippleNoForwarderCaching(t *testing.T) {
	paths := map[int]routing.Path{1: {0, 1, 2, 3}}
	h := newHarness(t, linePositions(4), idealRadio(), paths, Options{})
	h.inject(0, 1, 8, 3)
	h.eng.Run(100 * sim.Millisecond)
	// Station 1 cancelled relays (station 2 outprioritised it); its queue
	// must stay empty — no cached copies.
	if h.agents[1].QueueLen() != 0 {
		t.Fatalf("forwarder cached %d packets", h.agents[1].QueueLen())
	}
}

func TestRippleEndToEndRetryOnDeadPath(t *testing.T) {
	// Destination and forwarders out of range: the source retries
	// end-to-end and eventually drops.
	positions := []radio.Pos{{X: 0}, {X: 600}}
	paths := map[int]routing.Path{1: {0, 1}}
	h := newHarness(t, positions, idealRadio(), paths, Options{})
	h.inject(0, 1, 2, 1)
	h.eng.Run(2 * sim.Second)
	p := phys.Default()
	if h.counters[0].AckTimeouts < uint64(p.RetryLimit) {
		t.Fatalf("timeouts = %d, want ≥%d", h.counters[0].AckTimeouts, p.RetryLimit)
	}
	if h.counters[0].MACDrops != 2 {
		t.Fatalf("MACDrops = %d, want 2", h.counters[0].MACDrops)
	}
	if len(h.delivered) > 1 && len(h.delivered[1]) != 0 {
		t.Fatal("nothing should be delivered on a dead path")
	}
}

// TestRippleTwoWayTraffic: both endpoints send simultaneously (the TCP
// data/ACK pattern); both directions must complete without interference
// from each other's mTXOPs.
func TestRippleTwoWayTraffic(t *testing.T) {
	paths := map[int]routing.Path{1: {0, 1, 2, 3}}
	h := newHarness(t, linePositions(4), idealRadio(), paths, Options{})
	h.inject(0, 1, 16, 3)
	h.inject(3, 1, 16, 0)
	h.eng.Run(200 * sim.Millisecond)
	if len(h.delivered[3]) != 16 {
		t.Fatalf("forward direction delivered %d/16", len(h.delivered[3]))
	}
	if len(h.delivered[0]) != 16 {
		t.Fatalf("reverse direction delivered %d/16", len(h.delivered[0]))
	}
}

// TestRippleAckRelayedTowardSource checks the (i−1)·Slot+SIFS ACK relay
// rule: with only adjacent links decodable the ACK must be relayed by both
// forwarders back to the source (total ACK transmissions ≥ 3 per mTXOP).
func TestRippleAckRelayedTowardSource(t *testing.T) {
	positions := []radio.Pos{{X: 0}, {X: 180}, {X: 360}, {X: 540}}
	paths := map[int]routing.Path{1: {0, 1, 2, 3}}
	h := newHarness(t, positions, idealRadio(), paths, Options{})
	h.inject(0, 1, 1, 3)
	h.eng.Run(50 * sim.Millisecond)
	var acks int
	ackTx := map[pkt.NodeID]bool{}
	for _, f := range h.frames {
		if f.Kind == pkt.Ack {
			acks++
			ackTx[f.Tx] = true
		}
	}
	if !ackTx[3] || !ackTx[2] || !ackTx[1] {
		t.Fatalf("ACK relay chain incomplete: transmitters %v over %d acks", ackTx, acks)
	}
	// The source must have completed without retries.
	if h.counters[0].AckTimeouts != 0 {
		t.Fatalf("source timed out %d times", h.counters[0].AckTimeouts)
	}
}

// TestRippleNoAggSendsSinglePacketFrames checks the R1 configuration.
func TestRippleNoAggSendsSinglePacketFrames(t *testing.T) {
	opt := Options{MaxAgg: 1}
	paths := map[int]routing.Path{1: {0, 1, 2, 3}}
	h := newHarness(t, linePositions(4), idealRadio(), paths, opt)
	h.inject(0, 1, 8, 3)
	h.eng.Run(100 * sim.Millisecond)
	for _, f := range h.frames {
		if f.Kind == pkt.Data && len(f.Packets) > 1 {
			t.Fatalf("R1 frame carries %d packets", len(f.Packets))
		}
	}
	if len(h.delivered[3]) != 8 {
		t.Fatalf("delivered %d/8", len(h.delivered[3]))
	}
}

// TestRipplePartialCorruptionRetransmitsOnlyLost: with a BER that corrupts
// some sub-packets, the source retransmits only unacked ones; the
// destination ends up with every packet exactly once.
func TestRipplePartialCorruptionRetransmitsOnlyLost(t *testing.T) {
	rc := idealRadio()
	rc.BitErrorRate = 3e-5 // 1000B packet: ≈22% corruption per packet
	paths := map[int]routing.Path{1: {0, 1, 2, 3}}
	h := newHarness(t, linePositions(4), rc, paths, Options{})
	h.inject(0, 1, 32, 3)
	h.eng.Run(sim.Second)
	if got := len(h.delivered[3]); got != 32 {
		t.Fatalf("delivered %d packets, want 32", got)
	}
	seen := map[uint64]bool{}
	for _, p := range h.delivered[3] {
		if seen[p.UID] {
			t.Fatalf("duplicate delivery of %d", p.UID)
		}
		seen[p.UID] = true
	}
	// Partial retransmission means more packet transmissions than packets.
	if h.counters[0].TxPackets <= 32 {
		t.Fatalf("TxPackets = %d, expected retransmissions beyond 32", h.counters[0].TxPackets)
	}
}

// TestRippleMacSeqAssignedOnAccept: queue-rejected packets must not consume
// MAC sequence numbers (that would leave permanent Rq gaps).
func TestRippleMacSeqAssignedOnAccept(t *testing.T) {
	paths := map[int]routing.Path{1: {0, 1}}
	h := newHarness(t, linePositions(2), idealRadio(), paths, Options{})
	h.inject(0, 1, 60, 1) // 50-limit queue: 10 rejected
	if h.counters[0].QueueDrops != 10 {
		t.Fatalf("QueueDrops = %d", h.counters[0].QueueDrops)
	}
	h.eng.Run(sim.Second)
	if got := len(h.delivered[1]); got != 50 {
		t.Fatalf("delivered %d, want 50", got)
	}
	// MacSeqs of delivered packets must be exactly 0..49 in order.
	for i, p := range h.delivered[1] {
		if p.MacSeq != int64(i) {
			t.Fatalf("MacSeq hole at %d: got %d", i, p.MacSeq)
		}
	}
}

// Every frame an mTXOP draws from the medium's pool — source data, relays
// held while their timers run, bitmap ACKs and their relays, piggybacking
// relays — is back in it once the air drains, under loss, suppressed relays
// and both relay modes.
func TestRippleFramesReturnToPool(t *testing.T) {
	for _, c := range []struct {
		strict bool
		maxAgg int // 1 is RIPPLE-noagg
	}{{false, 0}, {true, 0}, {false, 1}} {
		opt := Options{MaxAgg: c.maxAgg, StrictRelay: c.strict, LocalAggOnRelay: true}
		rc := idealRadio()
		rc.BitErrorRate = 2e-5
		paths := map[int]routing.Path{1: {0, 1, 2, 3}, 2: {3, 2, 1, 0}, 3: {1, 2, 3}}
		h := newHarness(t, linePositions(4), rc, paths, opt)
		h.inject(0, 1, 48, 3)
		h.inject(3, 2, 48, 0)
		h.inject(1, 3, 16, 3)
		h.eng.Run(2 * sim.Second)
		if len(h.delivered[3]) == 0 || len(h.delivered[0]) == 0 {
			t.Fatalf("delivered %d and %d packets", len(h.delivered[3]), len(h.delivered[0]))
		}
		var cancels uint64
		for _, c := range h.counters {
			cancels += c.RelayCancels
		}
		if cancels == 0 {
			t.Fatal("no relay was ever discarded: the release path is not exercised")
		}
		gets, recycled := h.med.Frames().Counters()
		if inUse := h.med.Frames().InUse(); gets == 0 || inUse != 0 || recycled != gets {
			t.Fatalf("StrictRelay=%v: %d of %d frames never returned to the pool", c.strict, inUse, gets)
		}
		if onAir := h.med.OnAir(); onAir != 0 {
			t.Fatalf("StrictRelay=%v MaxAgg=%d: %d transmission records never returned to the medium's pool",
				c.strict, c.maxAgg, onAir)
		}
	}
}

// A forwarder remembers the mTXOPs it relayed in bounded seen-sets: after
// three capacities of them its memory holds one capacity, not the run's
// history.
func TestRippleRelayMemoryIsBounded(t *testing.T) {
	// Only adjacent links decode, so station 1 relays every data frame and
	// every ACK; MaxAgg 1 makes each packet an mTXOP of its own.
	positions := []radio.Pos{{X: 0}, {X: 180}, {X: 360}}
	paths := map[int]routing.Path{1: {0, 1, 2}}
	opt := Options{MaxAgg: 1}
	h := newHarness(t, positions, idealRadio(), paths, opt)
	h.med.Trace = nil // the harness' frame log would be the run's history
	const mtxops = 3 * forward.SeenCap
	for sent := 0; sent < mtxops; sent += 32 {
		h.inject(0, 1, 32, 2)
		h.eng.Run(h.eng.Now() + 100*sim.Millisecond)
	}
	relay := h.agents[1]
	if got := len(h.delivered[2]); got != mtxops {
		t.Fatalf("delivered %d packets, want %d", got, mtxops)
	}
	if h.counters[1].Relays < 2*mtxops {
		t.Fatalf("station 1 relayed %d frames, want a data and an ACK relay for each of %d mTXOPs",
			h.counters[1].Relays, mtxops)
	}
	if d, a := relay.seenData.Len(), relay.seenAck.Len(); d != forward.SeenCap || a != forward.SeenCap {
		t.Fatalf("after %d relayed mTXOPs the seen-sets hold %d and %d identifiers, want the capacity %d in each",
			mtxops, d, a, forward.SeenCap)
	}
}
