package transport

import (
	"testing"

	"ripple/internal/pkt"
	"ripple/internal/sim"
	"ripple/internal/stats"
)

// pipe is a loopback network: packets injected at either endpoint are
// delivered to the opposite endpoint after a fixed delay, with an optional
// per-packet drop hook — enough to unit-test TCP behaviour in isolation.
type pipe struct {
	eng   *sim.Engine
	conn  *TCP
	delay sim.Time
	// drop returns true to discard the packet (loss injection).
	drop func(p *pkt.Packet) bool
	// reorderHold holds back one packet to force reordering when set.
	sent int
}

func (pp *pipe) sendFrom(at pkt.NodeID) SendFunc {
	return func(p *pkt.Packet) bool {
		pp.sent++
		if pp.drop != nil && pp.drop(p) {
			return true // dropped in flight, but accepted by the queue
		}
		pp.eng.After(pp.delay, func() { pp.conn.Receive(p.Dst, p) })
		return true
	}
}

func newPipeTCP(t *testing.T, cfg TCPConfig, drop func(*pkt.Packet) bool) (*sim.Engine, *TCP, *stats.Flow, *pipe) {
	t.Helper()
	eng := sim.NewEngine()
	fs := &stats.Flow{ID: 1}
	pp := &pipe{eng: eng, delay: sim.Millisecond, drop: drop}
	conn := NewTCP(eng, cfg, 1, 0, 1, pp.sendFrom(0), pp.sendFrom(1), fs)
	pp.conn = conn
	return eng, conn, fs, pp
}

func TestTCPTransfersAllDataOnCleanPipe(t *testing.T) {
	eng, conn, fs, _ := newPipeTCP(t, DefaultTCPConfig(), nil)
	done := false
	conn.StartTransfer(100, func() { done = true })
	eng.Run(10 * sim.Second)
	if !done {
		t.Fatal("bounded transfer did not complete")
	}
	if fs.AppBytes != 100*1000 {
		t.Fatalf("AppBytes = %d, want 100000", fs.AppBytes)
	}
	if fs.Reordered != 0 {
		t.Fatalf("clean pipe must not reorder, got %d", fs.Reordered)
	}
}

func TestTCPSlowStartDoublesWindow(t *testing.T) {
	eng, conn, _, _ := newPipeTCP(t, DefaultTCPConfig(), nil)
	conn.Start()
	// After a few RTTs of slow start the window must have grown well
	// beyond the initial 2 (doubling per RTT until MaxCwnd).
	eng.Run(20 * sim.Millisecond) // ≈10 RTTs at 2 ms RTT
	if conn.Cwnd() < DefaultTCPConfig().MaxCwnd {
		t.Fatalf("cwnd = %.1f after 10 RTTs, want MaxCwnd %.0f",
			conn.Cwnd(), DefaultTCPConfig().MaxCwnd)
	}
}

func TestTCPFastRetransmitOnTripleDupack(t *testing.T) {
	dropped := false
	drop := func(p *pkt.Packet) bool {
		if !p.TCP.IsAck && p.Seq == 10 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	eng, conn, fs, _ := newPipeTCP(t, DefaultTCPConfig(), drop)
	done := false
	conn.StartTransfer(50, func() { done = true })
	eng.Run(sim.Second)
	if !done {
		t.Fatal("transfer did not recover from a single loss")
	}
	if fs.AppBytes != 50*1000 {
		t.Fatalf("AppBytes = %d", fs.AppBytes)
	}
	// Fast retransmit must beat the 200 ms minimum RTO by a wide margin:
	// with a 2 ms RTT the whole 50-packet transfer plus recovery fits in
	// well under 100 ms.
	if eng.Now() > sim.Second {
		t.Fatalf("recovery took %v", eng.Now())
	}
}

func TestTCPRTORecoversFromAckSilence(t *testing.T) {
	// Drop everything for the first 300 ms: only the RTO can recover.
	eng, conn, _, pp := newPipeTCP(t, DefaultTCPConfig(), nil)
	blackout := true
	pp.drop = func(p *pkt.Packet) bool { return blackout }
	eng.At(300*sim.Millisecond, func() { blackout = false })
	done := false
	conn.StartTransfer(10, func() { done = true })
	eng.Run(10 * sim.Second)
	if !done {
		t.Fatal("transfer did not recover after blackout (RTO broken)")
	}
}

func TestTCPCwndCollapsesOnRTO(t *testing.T) {
	eng, conn, _, pp := newPipeTCP(t, DefaultTCPConfig(), nil)
	conn.Start()
	eng.Run(50 * sim.Millisecond) // let the window open fully
	grown := conn.Cwnd()
	blackout := true
	pp.drop = func(p *pkt.Packet) bool { return blackout }
	eng.Run(2 * sim.Second) // RTO fires during blackout
	if conn.Cwnd() >= grown {
		t.Fatalf("cwnd %.1f did not collapse after RTO (was %.1f)", conn.Cwnd(), grown)
	}
	if conn.Cwnd() > 2 {
		t.Fatalf("cwnd after RTO = %.1f, want ≈1", conn.Cwnd())
	}
}

func TestTCPReorderingTriggersDupacksNotLoss(t *testing.T) {
	// Swap packets 5 and 6 in flight: the receiver sees 6 before 5.
	var held *pkt.Packet
	eng := sim.NewEngine()
	fs := &stats.Flow{ID: 1}
	pp := &pipe{eng: eng, delay: sim.Millisecond}
	pp.drop = func(p *pkt.Packet) bool {
		if !p.TCP.IsAck && p.Seq == 5 && held == nil {
			held = p
			pp.eng.After(5*sim.Millisecond, func() { pp.conn.Receive(p.Dst, p) })
			return true
		}
		return false
	}
	conn := NewTCP(eng, DefaultTCPConfig(), 1, 0, 1, pp.sendFrom(0), pp.sendFrom(1), fs)
	pp.conn = conn
	done := false
	conn.StartTransfer(30, func() { done = true })
	eng.Run(sim.Second)
	if !done {
		t.Fatal("transfer did not complete")
	}
	if fs.Reordered == 0 {
		t.Fatal("reordering must be visible in flow stats")
	}
	if fs.AppBytes != 30*1000 {
		t.Fatalf("AppBytes = %d", fs.AppBytes)
	}
}

func TestTCPSequentialTransfersKeepMonotonicSeq(t *testing.T) {
	eng, conn, fs, _ := newPipeTCP(t, DefaultTCPConfig(), nil)
	runs := 0
	var launch func()
	launch = func() {
		conn.StartTransfer(10, func() {
			runs++
			if runs < 3 {
				launch()
			}
		})
	}
	launch()
	eng.Run(10 * sim.Second)
	if runs != 3 {
		t.Fatalf("completed %d transfers, want 3", runs)
	}
	if fs.TransfersCompleted != 3 {
		t.Fatalf("TransfersCompleted = %d", fs.TransfersCompleted)
	}
	if fs.AppBytes != 3*10*1000 {
		t.Fatalf("AppBytes = %d", fs.AppBytes)
	}
	if conn.SeqUna() != 30 {
		t.Fatalf("SeqUna = %d, want 30 (sequence numbers stay monotonic)", conn.SeqUna())
	}
}

func TestTCPRespectsMaxCwnd(t *testing.T) {
	cfg := DefaultTCPConfig()
	cfg.MaxCwnd = 8
	eng, conn, _, _ := newPipeTCP(t, cfg, nil)
	conn.Start()
	eng.Run(100 * sim.Millisecond)
	if conn.Cwnd() > 8 {
		t.Fatalf("cwnd %.1f exceeds MaxCwnd 8", conn.Cwnd())
	}
}

func TestTCPDuplicateDataCounted(t *testing.T) {
	// Deliver packet 3 twice.
	eng := sim.NewEngine()
	fs := &stats.Flow{ID: 1}
	pp := &pipe{eng: eng, delay: sim.Millisecond}
	pp.drop = func(p *pkt.Packet) bool {
		if !p.TCP.IsAck && p.Seq == 3 {
			dup := *p
			pp.eng.After(2*sim.Millisecond, func() { pp.conn.Receive(dup.Dst, &dup) })
		}
		return false
	}
	conn := NewTCP(eng, DefaultTCPConfig(), 1, 0, 1, pp.sendFrom(0), pp.sendFrom(1), fs)
	pp.conn = conn
	conn.StartTransfer(10, nil)
	eng.Run(sim.Second)
	if fs.Duplicates == 0 {
		t.Fatal("duplicate delivery must be counted")
	}
	if fs.AppBytes != 10*1000 {
		t.Fatalf("AppBytes = %d (duplicates must not double-count)", fs.AppBytes)
	}
}

// A segment further ahead than the receive window would alias another
// slot of the out-of-order ring; it can only come from a bug, and must fail
// loudly.
func TestTCPSegmentBeyondReceiveWindowPanics(t *testing.T) {
	_, conn, _, _ := newPipeTCP(t, DefaultTCPConfig(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("a segment 64 ahead of the next expected one was accepted")
		}
	}()
	conn.Receive(1, &pkt.Packet{Seq: 64, Src: 0, Dst: 1})
}
