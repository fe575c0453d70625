package forward

import (
	"reflect"
	"testing"

	"ripple/internal/phys"
	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
)

// harness wires a real engine + ideal medium + one scheme per station, with
// per-station delivery capture — a miniature network without transports.
type harness struct {
	eng       *sim.Engine
	med       *radio.Medium
	schemes   []Scheme
	counters  []Counters
	delivered [][]*pkt.Packet
	routes    *RouteBook
	nextUID   uint64
	nextSeq   map[int]int64
}

func idealRadio() radio.Config {
	c := radio.DefaultConfig()
	c.ShadowSigmaDB = 0
	c.BitErrorRate = 0
	return c
}

func newHarness(t *testing.T, positions []radio.Pos, rc radio.Config,
	paths map[int]routing.Path, mk func(Env) Scheme) *harness {
	t.Helper()
	h := &harness{eng: sim.NewEngine()}
	h.med = radio.NewMediumOn(h.eng, radio.NewLinkPlan(rc, positions), phys.Default(), sim.NewRNG(1, 1))
	// A flow's ID doubles as its slot in the route book.
	routes := NewRouteBook(5)
	for id, p := range paths {
		routes.Add(id, p)
	}
	h.routes = routes
	h.schemes = make([]Scheme, len(positions))
	h.counters = make([]Counters, len(positions))
	h.delivered = make([][]*pkt.Packet, len(positions))
	for i := range positions {
		i := i
		env := Env{
			Eng:    h.eng,
			Med:    h.med,
			P:      phys.Default(),
			ID:     pkt.NodeID(i),
			RNG:    sim.NewRNG(7, 100+uint64(i)),
			Routes: routes,
			C:      &h.counters[i],
			Deliver: func(p *pkt.Packet) {
				h.delivered[i] = append(h.delivered[i], p)
			},
		}
		h.schemes[i] = mk(env)
		h.med.Attach(pkt.NodeID(i), h.schemes[i])
	}
	return h
}

// unicast and exor make each station's scheme in place, as the run does.
func unicast(maxAgg, rtsThreshold int) func(Env) Scheme {
	return func(e Env) Scheme { u := new(Unicast); u.Init(e, maxAgg, rtsThreshold); return u }
}

func exor(compressed bool) func(Env) Scheme {
	return func(e Env) Scheme { x := new(ExOR); x.Init(e, compressed); return x }
}

func (h *harness) inject(from pkt.NodeID, flow int, n int, dst pkt.NodeID) {
	if h.nextSeq == nil {
		h.nextSeq = make(map[int]int64)
	}
	for k := 0; k < n; k++ {
		h.nextUID++
		seq := h.nextSeq[flow]
		h.nextSeq[flow]++
		p := &pkt.Packet{
			UID: uint64(flow)<<32 | h.nextUID, FlowID: flow,
			Stream: h.stream(flow, from),
			Seq:    seq, Bytes: 1000, Src: from, Dst: dst,
			Created: h.eng.Now(),
		}
		h.schemes[from].Send(p)
	}
}

// stream is the stream of flow's packets sent from `from`: forward from the
// path's source, reverse from anywhere else.
func (h *harness) stream(flow int, from pkt.NodeID) int32 {
	if from == h.routes.Path(flow).Src() {
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

func TestUnicastSingleHopExchange(t *testing.T) {
	paths := map[int]routing.Path{1: {0, 1}}
	h := newHarness(t, linePositions(2), idealRadio(), paths, unicast(1, 0))
	h.inject(0, 1, 5, 1)
	h.eng.Run(50 * sim.Millisecond)
	if got := len(h.delivered[1]); got != 5 {
		t.Fatalf("delivered %d packets, want 5", got)
	}
	if h.counters[0].AckTimeouts != 0 {
		t.Fatalf("unexpected timeouts on a clean link: %d", h.counters[0].AckTimeouts)
	}
	// Order preserved.
	for i, p := range h.delivered[1] {
		if p.Seq != int64(i) {
			t.Fatalf("delivery order broken: %v", h.delivered[1])
		}
	}
}

func TestUnicastMultiHopRelay(t *testing.T) {
	paths := map[int]routing.Path{1: {0, 1, 2, 3}}
	h := newHarness(t, linePositions(4), idealRadio(), paths, unicast(1, 0))
	h.inject(0, 1, 10, 3)
	h.eng.Run(100 * sim.Millisecond)
	if got := len(h.delivered[3]); got != 10 {
		t.Fatalf("destination got %d packets, want 10", got)
	}
	if len(h.delivered[1]) != 0 || len(h.delivered[2]) != 0 {
		t.Fatal("forwarders must not deliver to their own transport")
	}
}

func TestAFRAggregatesIntoOneFrame(t *testing.T) {
	paths := map[int]routing.Path{1: {0, 1}}
	h := newHarness(t, linePositions(2), idealRadio(), paths, unicast(16, 0))
	h.inject(0, 1, 16, 1)
	h.eng.Run(50 * sim.Millisecond)
	if got := len(h.delivered[1]); got != 16 {
		t.Fatalf("delivered %d, want 16", got)
	}
	if h.counters[0].TxData != 1 {
		t.Fatalf("AFR sent %d data frames for 16 packets, want 1 aggregate", h.counters[0].TxData)
	}
}

func TestDCFSendsOneFramePerPacket(t *testing.T) {
	paths := map[int]routing.Path{1: {0, 1}}
	h := newHarness(t, linePositions(2), idealRadio(), paths, unicast(1, 0))
	h.inject(0, 1, 8, 1)
	h.eng.Run(50 * sim.Millisecond)
	if h.counters[0].TxData != 8 {
		t.Fatalf("DCF sent %d data frames for 8 packets, want 8", h.counters[0].TxData)
	}
}

func TestUnicastRetryAndDropWhenPeerSilent(t *testing.T) {
	// Destination beyond decode range: every frame times out, and the
	// packet is dropped after the retry limit.
	paths := map[int]routing.Path{1: {0, 1}}
	positions := []radio.Pos{{X: 0}, {X: 600}} // beyond CS and RX
	h := newHarness(t, positions, idealRadio(), paths, unicast(1, 0))
	h.inject(0, 1, 1, 1)
	h.eng.Run(sim.Second)
	p := phys.Default()
	if got := h.counters[0].AckTimeouts; got != uint64(p.RetryLimit)+1 {
		t.Fatalf("timeouts = %d, want %d", got, p.RetryLimit+1)
	}
	if h.counters[0].MACDrops != 1 {
		t.Fatalf("MACDrops = %d, want 1", h.counters[0].MACDrops)
	}
	if h.schemes[0].QueueLen() != 0 {
		t.Fatal("dropped packet must leave the queue")
	}
}

func TestUnicastQueueOverflowDrops(t *testing.T) {
	paths := map[int]routing.Path{1: {0, 1}}
	h := newHarness(t, linePositions(2), idealRadio(), paths, unicast(1, 0))
	h.inject(0, 1, 60, 1) // queue limit is 50
	if h.counters[0].QueueDrops != 10 {
		t.Fatalf("QueueDrops = %d, want 10", h.counters[0].QueueDrops)
	}
}

func TestPreExOROpportunisticDelivery(t *testing.T) {
	paths := map[int]routing.Path{1: {0, 1, 2, 3}}
	h := newHarness(t, linePositions(4), idealRadio(), paths, exor(false))
	h.inject(0, 1, 10, 3)
	h.eng.Run(200 * sim.Millisecond)
	if got := len(h.delivered[3]); got != 10 {
		t.Fatalf("delivered %d packets, want 10", got)
	}
	// With zero shadowing the frame reaches station 2 (200 m) directly:
	// station 2 should take custody (skipping 1), so station 1 relays
	// nothing and the total data transmissions per packet are 2.
	if h.counters[1].TxData != 0 {
		t.Fatalf("station 1 transmitted %d data frames; custody should skip it", h.counters[1].TxData)
	}
	if h.counters[2].TxData != 10 {
		t.Fatalf("station 2 transmitted %d data frames, want 10", h.counters[2].TxData)
	}
}

func TestMCExORSingleCompressedAck(t *testing.T) {
	paths := map[int]routing.Path{1: {0, 1, 2, 3}}
	h := newHarness(t, linePositions(4), idealRadio(), paths, exor(true))
	h.inject(0, 1, 10, 3)
	h.eng.Run(200 * sim.Millisecond)
	if got := len(h.delivered[3]); got != 10 {
		t.Fatalf("delivered %d packets, want 10", got)
	}
	// Compressed acking: for each data transmission exactly one ACK from
	// the best receiver. Total frames = data frames + 1 ACK each.
	var data, all uint64
	for i := range h.counters {
		data += h.counters[i].TxData
		all += h.counters[i].TxFrames
	}
	if all != 2*data {
		t.Fatalf("frames = %d for %d data transmissions: compressed acking should yield exactly one ACK each", all, data)
	}
}

func TestRouteBookLimitsForwarders(t *testing.T) {
	b := NewRouteBook(2)
	long := routing.Path{0, 1, 2, 3, 4, 5}
	b.Add(1, long)
	got := b.FwdList(1, 0, 5)
	if len(got) > 3 { // destination + at most 2 forwarders
		t.Fatalf("FwdList = %v, want ≤3 entries", got)
	}
}

func TestDedupe(t *testing.T) {
	var d SeenSet
	if d.Seen(1) {
		t.Fatal("fresh id reported seen")
	}
	if !d.Seen(1) {
		t.Fatal("repeat id not detected")
	}
	for id := uint64(2); id <= SeenCap+1; id++ {
		d.Seen(id) // the last one evicts 1
	}
	if d.Seen(1) {
		t.Fatal("evicted id should read as fresh again")
	}
}

func TestSeenSetEvictsInInsertionOrderAtCapacity(t *testing.T) {
	var s SeenSet
	if s.Has(7) || s.Len() != 0 {
		t.Fatal("the zero value must be an empty set")
	}
	for id := uint64(1); id <= SeenCap; id++ {
		s.Seen(id)
	}
	s.Seen(2) // already a member: neither refreshed nor inserted twice
	if s.Len() != SeenCap {
		t.Fatalf("Len %d after SeenCap distinct identifiers, want %d", s.Len(), SeenCap)
	}
	// Each insertion past capacity evicts exactly the oldest member, across
	// more than two laps of the ring.
	for id := uint64(SeenCap + 1); id <= 3*SeenCap+5; id++ {
		s.Seen(id)
		if s.Len() != SeenCap {
			t.Fatalf("Len %d after adding %d, want %d", s.Len(), id, SeenCap)
		}
		if s.Has(id - SeenCap) {
			t.Fatalf("adding %d should have evicted %d", id, id-SeenCap)
		}
		if !s.Has(id-SeenCap+1) || !s.Has(id) {
			t.Fatalf("adding %d lost %d or %d, neither of which is the oldest", id, id-SeenCap+1, id)
		}
	}
	s.Reset()
	if s.Len() != 0 || s.Has(3*SeenCap+5) {
		t.Fatal("Reset left members behind")
	}
	// After Reset the set fills from empty again, oldest first.
	for id := uint64(1); id <= SeenCap+1; id++ {
		s.Seen(id)
	}
	if s.Has(1) || !s.Has(2) || !s.Has(SeenCap+1) || s.Len() != SeenCap {
		t.Fatal("eviction order wrong after Reset")
	}
}

func TestSeenSetAllocations(t *testing.T) {
	// Filling an empty set: the ring doubles from 16 to SeenCap, nine steps
	// of two allocations, ring and index.
	ringSteps := 0
	var s SeenSet
	fill := testing.AllocsPerRun(1, func() {
		s = SeenSet{}
		ringSteps = 0
		for id, last := uint64(0), 0; id < SeenCap; id++ {
			s.Seen(id)
			if c := cap(s.ring); c != last {
				ringSteps, last = ringSteps+1, c
			}
		}
	})
	if ringSteps != 9 || cap(s.ring) != SeenCap || fill != 18 {
		t.Fatalf("the ring reached capacity %d in %d steps and %.0f allocations, want %d in 9 and 18",
			cap(s.ring), ringSteps, fill, SeenCap)
	}
	// At capacity an insertion overwrites a ring slot in place and moves a
	// few index entries: nothing is allocated, nothing moves or grows.
	slot0, id := &s.ring[0], uint64(SeenCap)
	if a := testing.AllocsPerRun(2*SeenCap, func() {
		id++
		if s.Seen(id) {
			t.Fatal("fresh identifier reported seen")
		}
	}); a != 0 {
		t.Fatalf("%v allocations per insertion at capacity, want 0", a)
	}
	if &s.ring[0] != slot0 || len(s.ring) != SeenCap || cap(s.ring) != SeenCap {
		t.Fatalf("the ring moved or grew over two laps at capacity: len %d cap %d", len(s.ring), cap(s.ring))
	}
	// A Reset set fills again in the capacity it has.
	s.Reset()
	if a := testing.AllocsPerRun(1, func() {
		for id := uint64(0); id < SeenCap; id++ {
			s.Seen(id * 977)
		}
		s.Reset()
	}); a != 0 {
		t.Fatalf("%v allocations refilling a Reset set, want 0", a)
	}
}

// refSeenSet is the set as a map and a slice in insertion order: what the
// compact SeenSet must be indistinguishable from.
type refSeenSet struct {
	seen  map[uint64]bool
	order []uint64
}

func (r *refSeenSet) Seen(id uint64) bool {
	if r.seen[id] {
		return true
	}
	if r.seen == nil {
		r.seen = map[uint64]bool{}
	}
	r.seen[id] = true
	r.order = append(r.order, id)
	if len(r.order) > SeenCap {
		delete(r.seen, r.order[0])
		r.order = r.order[1:]
	}
	return false
}

// Random identifiers of the shapes the schemes use — runs of consecutive
// numbers under a few high-bit tags, revisited at random — through several
// laps of the ring and two Resets: every answer, and every membership
// question about recent, evicted and never-seen identifiers, agrees with the
// reference.
func TestSeenSetMatchesMapReference(t *testing.T) {
	rng := sim.NewRNG(11, 4)
	var s SeenSet
	var ref refSeenSet
	next := [4]uint64{}
	var recent []uint64
	for step := 0; step < 12*SeenCap; step++ {
		if step == 3*SeenCap/2 || step == 7*SeenCap {
			s.Reset()
			ref = refSeenSet{}
		}
		var id uint64
		switch rng.IntN(10) {
		case 0, 1: // an identifier shown before, recently or long ago
			if len(recent) > 0 {
				id = recent[rng.IntN(len(recent))]
				break
			}
			fallthrough
		default:
			tag := rng.IntN(len(next))
			next[tag]++
			id = uint64(tag)<<33 | uint64(tag&1)<<32 | next[tag]
		}
		recent = append(recent, id)
		if len(recent) > 3*SeenCap {
			recent = recent[SeenCap:]
		}
		if got, want := s.Seen(id), ref.Seen(id); got != want {
			t.Fatalf("step %d: Seen(%#x) = %v, reference %v", step, id, got, want)
		}
		if s.Len() != len(ref.order) {
			t.Fatalf("step %d: Len %d, reference %d", step, s.Len(), len(ref.order))
		}
		probe := recent[rng.IntN(len(recent))]
		if s.Has(probe) != ref.seen[probe] || s.Has(probe^1<<40) {
			t.Fatalf("step %d: Has(%#x) = %v, reference %v", step, probe, s.Has(probe), ref.seen[probe])
		}
	}
}

// Counters.Add hand-lists the fields; a counter added to the struct but not
// to Add would silently vanish from Result.MAC. Every field gets a distinct
// value on both sides, and every field of the sum must show both.
func TestCountersAddCoversEveryField(t *testing.T) {
	var a, b Counters
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetUint(uint64(i + 1))
		bv.Field(i).SetUint(uint64(1000 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		if got, want := av.Field(i).Uint(), uint64(1001*(i+1)); got != want {
			t.Errorf("Counters.Add misses field %s: sum %d, want %d",
				av.Type().Field(i).Name, got, want)
		}
	}
}
