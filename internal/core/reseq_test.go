package core

import (
	"testing"

	"ripple/internal/forward"
	"ripple/internal/phys"
	"ripple/internal/pkt"
	"ripple/internal/sim"
)

// newRqHarness builds a Ripple with only the pieces the Rq path touches.
func newRqHarness(t *testing.T, opt Options) (*sim.Engine, *Ripple, *[]int64) {
	t.Helper()
	eng := sim.NewEngine()
	delivered := &[]int64{}
	env := forward.Env{
		Eng: eng,
		P:   phys.Default(),
		ID:  3,
		RNG: sim.NewRNG(1, 1),
		C:   &forward.Counters{},
		Deliver: func(p *pkt.Packet) {
			*delivered = append(*delivered, p.MacSeq)
		},
	}
	r := new(Ripple)
	r.Init(env, opt)
	return eng, r, delivered
}

func rqPkt(macSeq int64) *pkt.Packet {
	return &pkt.Packet{UID: uint64(macSeq) + 1, FlowID: 1, MacSeq: macSeq, Src: 0, Dst: 3, Bytes: 1000}
}

// pooledRqPkt is rqPkt drawn from pool, with the caller's one reference.
func pooledRqPkt(pool *pkt.Pool, macSeq int64) *pkt.Packet {
	p := pool.Get()
	p.UID, p.FlowID, p.MacSeq, p.Src, p.Dst, p.Bytes = uint64(macSeq)+1, 1, macSeq, 0, 3, 1000
	return p
}

func TestRqDeliversInOrder(t *testing.T) {
	eng, r, got := newRqHarness(t, Options{})
	for _, s := range []int64{0, 1, 2, 3} {
		r.deliver(rqPkt(s))
	}
	eng.Run(sim.Second)
	want := []int64{0, 1, 2, 3}
	assertSeqs(t, *got, want)
}

func TestRqHoldsGapThenDrains(t *testing.T) {
	eng, r, got := newRqHarness(t, Options{})
	r.deliver(rqPkt(0))
	r.deliver(rqPkt(2)) // gap at 1
	r.deliver(rqPkt(3))
	if len(*got) != 1 {
		t.Fatalf("delivered %v before gap filled", *got)
	}
	r.deliver(rqPkt(1)) // retransmission arrives
	eng.Run(sim.Second)
	assertSeqs(t, *got, []int64{0, 1, 2, 3})
}

func TestRqHoldTimeoutSkipsAbandonedGap(t *testing.T) {
	opt := Options{RqHold: 10 * sim.Millisecond}
	eng, r, got := newRqHarness(t, opt)
	r.deliver(rqPkt(0))
	r.deliver(rqPkt(2))
	r.deliver(rqPkt(3))
	eng.Run(sim.Second) // hold expires; seq 1 never comes
	assertSeqs(t, *got, []int64{0, 2, 3})
}

func TestRqCapOverflowSkips(t *testing.T) {
	opt := Options{RqCap: 4, RqHold: sim.Second * 100} // a hold of 100 s: effectively never
	eng, r, got := newRqHarness(t, opt)
	r.deliver(rqPkt(0))
	for s := int64(2); s < 8; s++ { // 6 buffered > cap 4 forces a skip
		r.deliver(rqPkt(s))
	}
	eng.Run(sim.Second)
	if len(*got) < 5 {
		t.Fatalf("cap overflow did not skip: delivered %v", *got)
	}
	// Order must still be non-decreasing in MacSeq.
	for i := 1; i < len(*got); i++ {
		if (*got)[i] < (*got)[i-1] {
			t.Fatalf("out-of-order delivery %v", *got)
		}
	}
}

func TestRqDropsDuplicates(t *testing.T) {
	eng, r, got := newRqHarness(t, Options{})
	c := r.C
	r.deliver(rqPkt(0))
	r.deliver(rqPkt(0)) // dup of delivered
	r.deliver(rqPkt(2))
	r.deliver(rqPkt(2)) // dup of buffered
	r.deliver(rqPkt(1))
	eng.Run(sim.Second)
	assertSeqs(t, *got, []int64{0, 1, 2})
	if c.Duplicates != 2 {
		t.Fatalf("Duplicates = %d, want 2", c.Duplicates)
	}
}

func TestRqSeparateStreamsIndependent(t *testing.T) {
	eng, r, got := newRqHarness(t, Options{})
	a := rqPkt(0)
	b := &pkt.Packet{UID: 100, FlowID: 2, Stream: 2, MacSeq: 0, Src: 5, Dst: 3}
	bGap := &pkt.Packet{UID: 101, FlowID: 2, Stream: 2, MacSeq: 2, Src: 5, Dst: 3}
	r.deliver(a)
	r.deliver(bGap) // flow 2 has a gap...
	r.deliver(b)    // ...now seq 0 arrives
	r.deliver(rqPkt(1))
	eng.Run(sim.Second)
	// Flow 1 delivered 0,1; flow 2 delivered 0 and later (hold) 2.
	if len(*got) != 4 {
		t.Fatalf("delivered %d packets, want 4: %v", len(*got), *got)
	}
}

func TestRqDisabledPassesThrough(t *testing.T) {
	opt := Options{RqOff: true}
	eng, r, got := newRqHarness(t, opt)
	r.deliver(rqPkt(2))
	r.deliver(rqPkt(0))
	eng.Run(sim.Second)
	assertSeqs(t, *got, []int64{2, 0}) // raw arrival order
}

func assertSeqs(t *testing.T, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
}

// A retransmission of a packet Rq already buffers is a duplicate: counted,
// not buffered twice, and the buffer's one reference stays the only one.
func TestRqDuplicateOfBufferedIsDropped(t *testing.T) {
	eng, r, got := newRqHarness(t, Options{})
	var pool pkt.Pool
	first, again := pooledRqPkt(&pool, 2), pooledRqPkt(&pool, 2)
	r.deliver(rqPkt(0))
	r.deliver(first) // gap at 1: buffered, the buffer refs it
	r.deliver(again) // the same sequence number again
	if r.C.Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want 1", r.C.Duplicates)
	}
	first.Release()
	again.Release()
	if pool.InUse() != 1 {
		t.Fatalf("%d packets out of the pool, want 1 (the buffered one)", pool.InUse())
	}
	r.deliver(rqPkt(1))
	eng.Run(sim.Second)
	assertSeqs(t, *got, []int64{0, 1, 2})
	if pool.InUse() != 0 {
		t.Fatalf("%d packets out of the pool after the drain, want 0", pool.InUse())
	}
}

// A packet below expected — a late copy of one already delivered — is a
// duplicate and leaves a buffered gap as it was.
func TestRqDuplicateBelowExpectedLeavesGap(t *testing.T) {
	opt := Options{RqHold: 10 * sim.Millisecond}
	eng, r, got := newRqHarness(t, opt)
	r.deliver(rqPkt(0))
	r.deliver(rqPkt(1))
	r.deliver(rqPkt(3)) // gap at 2
	r.deliver(rqPkt(0)) // late copies of delivered packets
	r.deliver(rqPkt(1))
	if r.C.Duplicates != 2 {
		t.Fatalf("Duplicates = %d, want 2", r.C.Duplicates)
	}
	assertSeqs(t, *got, []int64{0, 1})
	eng.Run(sim.Second) // the hold expires and skips the gap
	assertSeqs(t, *got, []int64{0, 1, 3})
}

// A crash releases every reference Rq holds, across streams, and withdraws
// the hold timers: the pool balances and nothing is delivered afterwards.
func TestRqReleaseCustodyReleasesBuffered(t *testing.T) {
	eng, r, got := newRqHarness(t, Options{})
	var pool pkt.Pool
	send := func(flow int, src pkt.NodeID, seq int64) {
		p := pooledRqPkt(&pool, seq)
		p.FlowID, p.Stream, p.Src = flow, pkt.StreamOf(flow, 0), src
		p.UID = uint64(flow)<<32 | uint64(seq)
		r.deliver(p)
		p.Release() // the sender's reference; Rq keeps its own if it buffers
	}
	send(1, 0, 0)
	for _, s := range []int64{2, 3, 5} {
		send(1, 0, s)
	}
	for _, s := range []int64{1, 4} {
		send(2, 5, s)
	}
	if n := r.ReleaseCustody(); n != 5 {
		t.Fatalf("ReleaseCustody released %d references, want 5", n)
	}
	gets, delivered, dropped := pool.Counters()
	if pool.InUse() != 0 || gets != delivered+dropped {
		t.Fatalf("pool unbalanced: gets %d, delivered %d, dropped %d, outstanding %d",
			gets, delivered, dropped, pool.InUse())
	}
	eng.Run(sim.Second)
	assertSeqs(t, *got, []int64{0})
}

// A gap that overflows the buffer skips before the arriving packet is
// buffered, so a packet older than what the skip delivered waits below
// expected, at the buffer's head. In-order delivery past it goes on, and
// the next skip goes back for it.
func TestRqOverflowKeepsLatePacketForNextSkip(t *testing.T) {
	opt := Options{RqCap: 4, RqHold: 10 * sim.Millisecond}
	eng, r, got := newRqHarness(t, opt)
	for _, s := range []int64{0, 5, 6, 7, 8} {
		r.deliver(rqPkt(s))
	}
	r.deliver(rqPkt(2))  // full: the skip delivers 5..8, then 2 is buffered
	r.deliver(rqPkt(10)) // a gap at 9, buffered behind 2
	r.deliver(rqPkt(9))  // in order: 9, and 10 drains past the late 2
	assertSeqs(t, *got, []int64{0, 5, 6, 7, 8, 9, 10})
	eng.Run(sim.Second) // the hold expires: the skip goes back to 2
	assertSeqs(t, *got, []int64{0, 5, 6, 7, 8, 9, 10, 2})
}
