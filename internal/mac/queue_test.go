package mac

import (
	"testing"

	"ripple/internal/audit"
	"ripple/internal/pkt"
)

// mk builds distinguishable packets.
func mk(uids ...uint64) []*pkt.Packet {
	out := make([]*pkt.Packet, len(uids))
	for i, u := range uids {
		out[i] = &pkt.Packet{UID: u}
	}
	return out
}

func uids(ps []*pkt.Packet) []uint64 {
	out := make([]uint64, len(ps))
	for i, p := range ps {
		out[i] = p.UID
	}
	return out
}

func eq(a []uint64, b ...uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// drain pops everything and returns the UIDs in order.
func drain(q *Queue) []uint64 {
	var out []uint64
	for p := q.Pop(); p != nil; p = q.Pop() {
		out = append(out, p.UID)
	}
	return out
}

func TestQueueRingWrapKeepsFIFO(t *testing.T) {
	q := NewQueue(4)
	// Interleave pushes and pops so head walks all the way around the ring
	// several times without ever exceeding the limit.
	for u := uint64(1); u <= 16; u++ {
		if !q.Push(&pkt.Packet{UID: u}) {
			t.Fatalf("push %d rejected below limit", u)
		}
		if u >= 3 {
			q.Pop()
		}
	}
	got := drain(q)
	if !eq(got, 15, 16) {
		t.Fatalf("drained %v, want [15 16]", got)
	}
}

func TestQueuePushFrontAfterWrap(t *testing.T) {
	q := NewQueue(4)
	for _, p := range mk(1, 2, 3) {
		q.Push(p)
	}
	q.Pop()
	q.Pop() // head is now mid-ring
	q.PushFront(&pkt.Packet{UID: 9})
	q.PushFront(&pkt.Packet{UID: 8})
	got := drain(q)
	if !eq(got, 8, 9, 3) {
		t.Fatalf("drained %v, want [8 9 3]", got)
	}
}

func TestQueuePushFrontGrowsPastLimit(t *testing.T) {
	q := NewQueue(2)
	q.Push(&pkt.Packet{UID: 1})
	q.Push(&pkt.Packet{UID: 2})
	// Front reinsertions (an in-service batch returning) may exceed the
	// drop-tail limit and must grow the ring rather than drop.
	for u := uint64(10); u < 20; u++ {
		q.PushFront(&pkt.Packet{UID: u})
	}
	if q.Len() != 12 {
		t.Fatalf("Len = %d, want 12", q.Len())
	}
	got := drain(q)
	if !eq(got, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 1, 2) {
		t.Fatalf("drained %v", got)
	}
}

func TestQueuePopNWhereIntoReusesScratch(t *testing.T) {
	q := NewQueue(8)
	for _, p := range mk(1, 2, 3, 4, 5, 6) {
		q.Push(p)
	}
	scratch := make([]*pkt.Packet, 0, 8)
	got := q.PopNWhereInto(scratch, 2, func(p *pkt.Packet) bool { return p.UID%2 == 0 })
	if !eq(uids(got), 2, 4) {
		t.Fatalf("selected %v, want [2 4]", uids(got))
	}
	if &got[0] != &scratch[:1][0] {
		t.Fatal("PopNWhereInto must append into the caller's scratch")
	}
	rest := drain(q)
	if !eq(rest, 1, 3, 5, 6) {
		t.Fatalf("remainder %v, want [1 3 5 6]", rest)
	}
}

func TestQueuePopNWhereAcrossWrap(t *testing.T) {
	q := NewQueue(4)
	for _, p := range mk(1, 2, 3, 4) {
		q.Push(p)
	}
	q.Pop()
	q.Pop()
	q.Push(&pkt.Packet{UID: 5})
	q.Push(&pkt.Packet{UID: 6}) // ring has wrapped: [3 4 5 6]
	got := q.PopNWhereInto(nil, 10, func(p *pkt.Packet) bool { return p.UID >= 5 })
	if !eq(uids(got), 5, 6) {
		t.Fatalf("selected %v, want [5 6]", uids(got))
	}
	if rest := drain(q); !eq(rest, 3, 4) {
		t.Fatalf("remainder %v, want [3 4]", rest)
	}
}

func TestQueueDropAccountingUnchanged(t *testing.T) {
	q := NewQueue(2)
	q.Push(&pkt.Packet{UID: 1})
	q.Push(&pkt.Packet{UID: 2})
	if q.Push(&pkt.Packet{UID: 3}) {
		t.Fatal("push above limit must be rejected")
	}
	if q.Drops() != 1 {
		t.Fatalf("Drops = %d, want 1", q.Drops())
	}
	if q.MaxDepth() != 2 {
		t.Fatalf("MaxDepth = %d, want 2", q.MaxDepth())
	}
}

func TestQueueZeroAllocSteadyState(t *testing.T) {
	q := NewQueue(50)
	ps := mk(1, 2, 3, 4, 5, 6, 7, 8)
	scratch := make([]*pkt.Packet, 0, 16)
	allocs := testing.AllocsPerRun(200, func() {
		for _, p := range ps {
			q.Push(p)
		}
		q.PushFront(ps[0])
		q.Pop()
		scratch = q.PopNWhereInto(scratch[:0], 8, func(*pkt.Packet) bool { return true })
	})
	if allocs != 0 {
		t.Fatalf("steady-state queue ops allocated %.1f times per run", allocs)
	}
}

func TestQueueAuditTapMirrorsEveryPath(t *testing.T) {
	// Every mutation path — Push, PushFront, Pop, PopN/PopNInto,
	// PopNWhere/PopNWhereInto, and rejected pushes — must keep the audit
	// tap's mirror equal to Len(); Event panics on the first divergence.
	a := audit.New()
	q := NewQueue(4)
	q.SetAudit(a.RegisterQueue(1, 4, q.Len))
	ps := mk(1, 2, 3, 4, 5, 6)

	q.Push(ps[0])
	q.Push(ps[1])
	q.Push(ps[2])
	a.Event(1)
	q.Pop()
	q.PushFront(ps[3])
	a.Event(2)
	q.PopNInto(nil, 2)
	a.Event(3)
	q.Push(ps[4])
	q.PopNWhereInto(nil, 2, func(p *pkt.Packet) bool { return p.UID%2 == 0 })
	a.Event(4)
	q.PopN(q.Len())
	a.AtDrain()
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining", q.Len())
	}

	// A rejected push (queue full) is a drop, not custody: the tap must
	// not count it.
	q2 := NewQueue(1)
	q2.SetAudit(a.RegisterQueue(2, 1, q2.Len))
	q2.Push(ps[0])
	if q2.Push(ps[5]) {
		t.Fatal("push over limit succeeded")
	}
	a.Event(5)
	q2.Pop()
	a.AtDrain()
}
