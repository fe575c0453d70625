package pkt

import "testing"

func TestPoolRecyclesAndResets(t *testing.T) {
	var pl Pool
	p := pl.Get()
	p.UID = 7
	p.FlowID = 3
	p.Bytes = 1000
	p.TCP = TCPHeader{IsAck: true, Ack: 9}
	p.Release()
	if pl.Free() != 1 {
		t.Fatalf("Free = %d, want 1", pl.Free())
	}
	q := pl.Get()
	if q != p {
		t.Fatal("Get should reuse the released packet")
	}
	if q.UID != 0 || q.FlowID != 0 || q.Bytes != 0 || q.TCP != (TCPHeader{}) {
		t.Fatalf("recycled packet not reset: %+v", q)
	}
	if pl.Free() != 0 {
		t.Fatalf("Free = %d, want 0", pl.Free())
	}
}

func TestPoolRefCountingDelaysRecycle(t *testing.T) {
	var pl Pool
	p := pl.Get()
	p.Ref() // second holder (e.g. a resequencing buffer)
	p.Release()
	if pl.Free() != 0 {
		t.Fatal("packet recycled while a reference was still held")
	}
	p.Release()
	if pl.Free() != 1 {
		t.Fatal("last Release should recycle")
	}
}

func TestPoolOverReleasePanics(t *testing.T) {
	var pl Pool
	p := pl.Get()
	p.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("releasing a recycled packet should panic")
		}
	}()
	// The recycled struct is back in the pool with refs == 0; releasing it
	// again is the use-after-free bug the panic guards against.
	p.pool = &pl // re-attach: Get() normally does this
	p.Release()
}

func TestUnpooledPacketsIgnoreRefs(t *testing.T) {
	p := &Packet{UID: 1}
	p.Ref()
	p.Release()
	p.Release() // no pool: all no-ops, never panics
	if p.UID != 1 {
		t.Fatal("unpooled packet must not be reset")
	}
}

func TestFrameAirHold(t *testing.T) {
	var pl Pool
	a, b := pl.Get(), pl.Get()
	f := &Frame{Kind: Data, Packets: []*Packet{a, b}}
	f.BeginAir(3) // tx-done + two receivers
	a.Release()   // the original owner abandons the packets mid-flight
	b.Release()
	if pl.Free() != 0 {
		t.Fatal("airtime hold must keep in-flight packets alive")
	}
	f.AirDone()
	f.AirDone()
	if pl.Free() != 0 {
		t.Fatal("hold released before the last PHY completion")
	}
	f.AirDone()
	if pl.Free() != 2 {
		t.Fatalf("Free = %d, want 2 after the frame left the air", pl.Free())
	}
	f.AirDone() // extra completions on a drained frame are ignored
}

func TestFrameAirHoldSkipsControlFrames(t *testing.T) {
	f := &Frame{Kind: Ack}
	f.BeginAir(2)
	f.AirDone() // must not underflow or panic without packets
}

func TestPoolConservationCounters(t *testing.T) {
	// The always-on identity: gets == delivered + dropped + InUse at every
	// instant, with classification happening only at the final release.
	var pl Pool
	check := func(wantGets, wantDel, wantDrop, wantUse int) {
		t.Helper()
		gets, del, drop := pl.Counters()
		if gets != wantGets || del != wantDel || drop != wantDrop || pl.InUse() != wantUse {
			t.Fatalf("counters = (gets %d, delivered %d, dropped %d, in-use %d), want (%d, %d, %d, %d)",
				gets, del, drop, pl.InUse(), wantGets, wantDel, wantDrop, wantUse)
		}
		if gets != del+drop+pl.InUse() {
			t.Fatalf("conservation identity broken: %d != %d+%d+%d", gets, del, drop, pl.InUse())
		}
	}

	a, b, c := pl.Get(), pl.Get(), pl.Get()
	check(3, 0, 0, 3)
	a.MarkDelivered()
	a.Release()
	check(3, 1, 0, 2)
	b.Release() // never marked: dropped
	check(3, 1, 1, 1)

	// A referenced packet classifies once, at its final release.
	c.Ref()
	c.MarkDelivered()
	c.Release()
	check(3, 1, 1, 1)
	c.Release()
	check(3, 2, 1, 0)

	// A recycled packet starts unclassified: the delivered flag must not
	// leak across lifetimes.
	d := pl.Get()
	check(4, 2, 1, 1)
	d.Release()
	check(4, 2, 2, 0)
}

func TestMarkDeliveredPoolLessNoop(t *testing.T) {
	p := &Packet{}
	p.MarkDelivered() // must not panic or set state on a pool-less packet
	p.Release()
}
