package transport

import (
	"testing"

	"ripple/internal/pkt"
	"ripple/internal/sim"
	"ripple/internal/stats"
)

func TestCBRBackloggedKeepsQueueFull(t *testing.T) {
	eng := sim.NewEngine()
	fs := &stats.Flow{ID: 1}
	queued := 0
	const limit = 50
	send := func(p *pkt.Packet) bool {
		if queued >= limit {
			return false
		}
		queued++
		return true
	}
	c := new(CBR)
	c.Init(eng, 1, 0, 1, 1000, 0, send, fs)
	c.Start()
	eng.Run(10 * sim.Millisecond)
	if queued != limit {
		t.Fatalf("backlogged CBR queued %d, want full queue %d", queued, limit)
	}
	// Drain half; the next refill must top it back up.
	queued = limit / 2
	eng.Run(20 * sim.Millisecond)
	if queued != limit {
		t.Fatalf("backlogged CBR did not refill: %d", queued)
	}
}

func TestCBRBackloggedEventRateIsBounded(t *testing.T) {
	eng := sim.NewEngine()
	fs := &stats.Flow{ID: 1}
	c := new(CBR)
	c.Init(eng, 1, 0, 1, 1000, 0, func(*pkt.Packet) bool { return false }, fs)
	c.Start()
	eng.Run(sim.Second)
	// One refill event per millisecond, not per would-be packet.
	if eng.Processed() > 1100 {
		t.Fatalf("backlogged CBR processed %d events in 1s, want ≈1000", eng.Processed())
	}
}
