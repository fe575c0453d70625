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
	return eng, New(env, opt), delivered
}

func rqPkt(macSeq int64) *pkt.Packet {
	return &pkt.Packet{UID: uint64(macSeq) + 1, FlowID: 1, MacSeq: macSeq, Src: 0, Dst: 3, Bytes: 1000}
}

func TestRqDeliversInOrder(t *testing.T) {
	eng, r, got := newRqHarness(t, DefaultOptions())
	for _, s := range []int64{0, 1, 2, 3} {
		r.deliver(rqPkt(s))
	}
	eng.Run(sim.Second)
	want := []int64{0, 1, 2, 3}
	assertSeqs(t, *got, want)
}

func TestRqHoldsGapThenDrains(t *testing.T) {
	eng, r, got := newRqHarness(t, DefaultOptions())
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
	opt := DefaultOptions()
	opt.RqHold = 10 * sim.Millisecond
	eng, r, got := newRqHarness(t, opt)
	r.deliver(rqPkt(0))
	r.deliver(rqPkt(2))
	r.deliver(rqPkt(3))
	eng.Run(sim.Second) // hold expires; seq 1 never comes
	assertSeqs(t, *got, []int64{0, 2, 3})
}

func TestRqCapOverflowSkips(t *testing.T) {
	opt := DefaultOptions()
	opt.RqCap = 4
	opt.RqHold = sim.Second * 100 // effectively never
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
	eng, r, got := newRqHarness(t, DefaultOptions())
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
	eng, r, got := newRqHarness(t, DefaultOptions())
	a := rqPkt(0)
	b := &pkt.Packet{UID: 100, FlowID: 2, MacSeq: 0, Src: 5, Dst: 3}
	bGap := &pkt.Packet{UID: 101, FlowID: 2, MacSeq: 2, Src: 5, Dst: 3}
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
	opt := DefaultOptions()
	opt.RqEnabled = false
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
