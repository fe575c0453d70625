package transport

import (
	"testing"

	"ripple/internal/pkt"
	"ripple/internal/sim"
	"ripple/internal/stats"
)

// benchWire joins a connection's two ends back to back: a packet sent at
// one end reaches the other a fixed delay later and is released there, as a
// MAC would. Its hops are pooled actions, so what a benchmark allocates is
// the connection's doing.
type benchWire struct {
	eng    *sim.Engine
	conn   *TCP
	fs     *stats.Flow
	target int64 // stop once this many data segments have been delivered
	free   []*wireHop
}

type wireHop struct {
	w  *benchWire
	to pkt.NodeID
	p  *pkt.Packet
}

func (h *wireHop) Run() {
	w, to, p := h.w, h.to, h.p
	h.p = nil
	w.free = append(w.free, h)
	p.MarkDelivered()
	w.conn.Receive(to, p)
	p.Release()
	if w.fs.PktsDelivered >= w.target {
		w.eng.Stop()
	}
}

func (w *benchWire) sendTo(to pkt.NodeID) SendFunc {
	return func(p *pkt.Packet) bool {
		var h *wireHop
		if n := len(w.free); n > 0 {
			h, w.free = w.free[n-1], w.free[:n-1]
		} else {
			h = &wireHop{w: w}
		}
		h.to, h.p = to, p
		w.eng.Do(w.eng.Now()+2*sim.Millisecond, h)
		return true
	}
}

// newBenchWire builds the default connection (window 42) over a 2 ms wire.
func newBenchWire() *benchWire {
	w := &benchWire{eng: sim.NewEngine(), fs: &stats.Flow{ID: 1}}
	w.conn = NewTCP(w.eng, DefaultTCPConfig(), 1, 0, 1, w.sendTo(1), w.sendTo(0), w.fs)
	w.conn.SetPool(&pkt.Pool{})
	return w
}

// deliver runs the connection until n more data segments have arrived.
func (w *benchWire) deliver(n int) {
	w.target = w.fs.PktsDelivered + int64(n)
	w.eng.Run(1 << 62)
}

// BenchmarkTCPBulk is the ack path of a saturated transfer at full window:
// one op is one data segment delivered and acknowledged.
func BenchmarkTCPBulk(b *testing.B) {
	w := newBenchWire()
	w.conn.Start()
	w.deliver(1000) // open the window, fill the pools
	b.ReportAllocs()
	b.ResetTimer()
	w.deliver(b.N)
}

// BenchmarkTCPShortTransfers is the web workload's shape: 20-segment
// transfers back to back, each a connection reset and a slow start.
func BenchmarkTCPShortTransfers(b *testing.B) {
	w := newBenchWire()
	var restart *sim.Event
	var again func()
	start := func() { w.conn.StartTransfer(20, again) }
	again = func() {
		if restart == nil {
			restart = w.eng.After(0, start)
			return
		}
		w.eng.Reschedule(restart, w.eng.Now())
	}
	start()
	w.deliver(1000)
	b.ReportAllocs()
	b.ResetTimer()
	w.deliver(b.N)
}
