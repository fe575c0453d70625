package pkt

import (
	"slices"
	"testing"
)

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

func TestFramePoolHoldReleaseBalance(t *testing.T) {
	var pl FramePool
	check := func(wantGets, wantRecycled, wantUse int) {
		t.Helper()
		gets, recycled := pl.Counters()
		if gets != wantGets || recycled != wantRecycled || pl.InUse() != wantUse {
			t.Fatalf("counters = (gets %d, recycled %d, in use %d), want (%d, %d, %d)",
				gets, recycled, pl.InUse(), wantGets, wantRecycled, wantUse)
		}
	}
	f := pl.Get()
	f.Hold() // a receiver keeps it past its callback
	check(1, 0, 1)
	f.Release()
	check(1, 0, 1)
	f.AssertLive("test")
	f.Release()
	check(1, 1, 0)
	if g := pl.Get(); g != f {
		t.Fatal("Get should reuse the released frame")
	}
	check(2, 1, 1)
}

func TestFramePoolDoubleReleasePanics(t *testing.T) {
	var pl FramePool
	f := pl.Get()
	f.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("releasing a recycled frame should panic")
		}
	}()
	f.Release()
}

func TestFramePoolHoldAfterReleasePanics(t *testing.T) {
	var pl FramePool
	f := pl.Get()
	f.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("holding a recycled frame should panic")
		}
	}()
	f.Hold()
}

func TestFramePoolRecyclesZeroWithCapacity(t *testing.T) {
	var pl FramePool
	f := pl.Get()
	f.Kind, f.Tx, f.TxopID, f.Duration = Data, 3, 9, 100
	f.FwdList = []NodeID{2, 1}
	for i := 0; i < 16; i++ {
		f.Packets = append(f.Packets, &Packet{UID: uint64(i)})
		f.AckedUIDs = append(f.AckedUIDs, uint64(i))
	}
	f.Release()
	g := pl.Get()
	if g != f {
		t.Fatal("Get should reuse the released frame")
	}
	if g.Kind != 0 || g.Tx != 0 || g.TxopID != 0 || g.Duration != 0 || g.FwdList != nil ||
		len(g.Packets) != 0 || len(g.AckedUIDs) != 0 {
		t.Fatalf("recycled frame not reset: %+v", g)
	}
	if cap(g.Packets) < 16 || cap(g.AckedUIDs) < 16 {
		t.Fatalf("recycled frame lost its capacity: %d packets, %d uids", cap(g.Packets), cap(g.AckedUIDs))
	}
	for _, p := range g.Packets[:16] {
		if p != nil {
			t.Fatal("recycled frame still points at its old packets")
		}
	}
}

// The AckedUIDs trap: a relay's clone is still on the air when the frame it
// was cloned from is recycled and refilled for another exchange.
func TestFrameCloneSurvivesRecycledOriginal(t *testing.T) {
	var pl FramePool
	a, b := &Packet{UID: 1}, &Packet{UID: 2}
	f := pl.Get()
	f.Kind = Ack
	f.Packets = append(f.Packets, a, b)
	f.AckedUIDs = append(f.AckedUIDs, 1, 2)
	g := f.Clone()
	f.Release()
	h := pl.Get() // f again, refilled
	if h != f {
		t.Fatal("the original was not reissued: the test proves nothing")
	}
	h.Packets = append(h.Packets, &Packet{UID: 8}, &Packet{UID: 9})
	h.AckedUIDs = append(h.AckedUIDs, 8, 9)
	if g.Packets[0] != a || g.Packets[1] != b || g.AckedUIDs[0] != 1 || g.AckedUIDs[1] != 2 {
		t.Fatalf("clone changed under a recycled original: packets %v, uids %v", g.Packets, g.AckedUIDs)
	}
	g.Release()
	h.Release()
	if pl.InUse() != 0 {
		t.Fatalf("InUse = %d after every release", pl.InUse())
	}
}

func TestFramePoolQuarantineKeepsReleasedFramesDead(t *testing.T) {
	var pl FramePool
	pl.Quarantine()
	f := pl.Get()
	f.Kind = Data
	f.Release()
	if g := pl.Get(); g == f {
		t.Fatal("a quarantined pool reissued a released frame")
	}
	if f.Kind != 0 {
		t.Fatal("released frame not poisoned")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AssertLive passed a released frame")
		}
	}()
	f.AssertLive("test")
}

func TestLiteralFramesIgnoreHolds(t *testing.T) {
	f := &Frame{Kind: Data, Packets: []*Packet{{UID: 1}}}
	f.Hold()
	f.Release()
	f.Release() // no pool: all no-ops, never panics
	f.AssertLive("test")
	f.BeginAir(1)
	f.AirDone() // the last completion releases the frame: still a no-op
	if f.Kind != Data || len(f.Packets) != 1 {
		t.Fatal("a literal frame must not be reset")
	}
}

// The air spends the creator's reference: the last completion recycles a
// pooled frame of any kind, packets or none.
func TestFrameAirReleasesPooledFrame(t *testing.T) {
	var pl FramePool
	f := pl.Get()
	f.Kind = Ack
	f.BeginAir(2)
	f.AirDone()
	if pl.InUse() != 1 {
		t.Fatal("frame recycled before its last PHY completion")
	}
	f.AirDone()
	if pl.InUse() != 0 {
		t.Fatal("the last PHY completion should recycle the frame")
	}
}

// Reset takes back every packet the pool allocated, wherever it was left,
// zeroed, and restarts the counters: the next run draws the same structs.
func TestPoolResetRecallsOutstandingPackets(t *testing.T) {
	var pl Pool
	held := []*Packet{pl.Get(), pl.Get(), pl.Get()}
	for i, p := range held {
		p.UID, p.Bytes = uint64(i+1), 1000
	}
	held[0].Ref()
	held[1].MarkDelivered()
	held[1].Release()
	pl.Reset()
	if gets, delivered, dropped := pl.Counters(); gets != 0 || delivered != 0 || dropped != 0 || pl.InUse() != 0 {
		t.Fatalf("after Reset: %d gets, %d delivered, %d dropped, %d in use", gets, delivered, dropped, pl.InUse())
	}
	if pl.Free() != 3 {
		t.Fatalf("%d packets pooled after Reset, want all 3", pl.Free())
	}
	for i := 0; i < 3; i++ {
		p := pl.Get()
		if !slices.Contains(held, p) {
			t.Fatal("Reset pool allocated instead of reissuing")
		}
		if p.UID != 0 || p.Bytes != 0 || p.refs != 1 || p.delivered {
			t.Fatalf("reissued packet not zeroed: %+v", p)
		}
	}
	if a := testing.AllocsPerRun(10, func() { pl.Get(); pl.Reset() }); a != 0 {
		t.Fatalf("Get and Reset on a warm pool allocate %.0f objects", a)
	}
}

// The frame pool likewise, with quarantine lifted; a frame first issued
// under quarantine is never reissued, so the pool does not keep it.
func TestFramePoolResetRecallsFramesAndLiftsQuarantine(t *testing.T) {
	var pl FramePool
	onAir := pl.Get()
	onAir.Packets = append(onAir.Packets, &Packet{UID: 7})
	onAir.AckedUIDs = append(onAir.AckedUIDs, 7)
	onAir.Hold()
	pl.Reset()
	if gets, recycled := pl.Counters(); gets != 0 || recycled != 0 || pl.InUse() != 0 {
		t.Fatalf("after Reset: %d gets, %d recycled, %d in use", gets, recycled, pl.InUse())
	}
	f := pl.Get()
	if f != onAir || len(f.Packets) != 0 || len(f.AckedUIDs) != 0 || cap(f.Packets) == 0 || f.refs != 1 {
		t.Fatalf("the frame left on the air came back as %+v", f)
	}
	pl.Quarantine()
	quarantined := pl.Get()
	quarantined.Release()
	f.Release()
	pl.Reset()
	if a, b := pl.Get(), pl.Get(); a != onAir || b == quarantined {
		t.Fatal("after Reset the pool must reissue its own frame and not the one born under quarantine")
	}
	f = pl.Get()
	f.Release()
	if pl.Get() != f {
		t.Fatal("quarantine survived Reset: a released frame was not reissued")
	}
}
