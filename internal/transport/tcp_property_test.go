package transport

import (
	"testing"
	"testing/quick"

	"ripple/internal/pkt"
	"ripple/internal/sim"
	"ripple/internal/stats"
)

// TestTCPReliabilityProperty: under arbitrary (bounded) loss patterns, a
// bounded transfer either completes with exactly the right number of
// in-order bytes, or is still retrying — it never completes short, never
// over-counts, and never delivers out of thin air.
func TestTCPReliabilityProperty(t *testing.T) {
	prop := func(lossMask []byte, sizeRaw uint8) bool {
		size := int64(sizeRaw%40) + 5
		eng := sim.NewEngine()
		fs := &stats.Flow{ID: 1}
		pp := &pipe{eng: eng, delay: sim.Millisecond}
		seen, dropped := 0, 0
		pp.drop = func(p *pkt.Packet) bool {
			// Bound total losses so the transfer must eventually finish
			// (an adversarial cyclic mask could otherwise drop every
			// exponentially-backed-off retransmission forever).
			if len(lossMask) == 0 || dropped >= 15 {
				return false
			}
			i := seen % len(lossMask)
			seen++
			if lossMask[i] >= 128 {
				dropped++
				return true
			}
			return false
		}
		cfg := DefaultTCPConfig()
		// Cap exponential backoff: with the default 60 s ceiling and
		// Karn's rule, adversarial patterns stall for tens of minutes of
		// simulated time before converging — correct but pointless here.
		cfg.RTOMax = 5 * sim.Second
		conn := NewTCP(eng, cfg, 1, 0, 1, pp.sendFrom(0), pp.sendFrom(1), fs)
		pp.conn = conn
		done := false
		conn.StartTransfer(size, func() { done = true })
		// Generous simulated budget: Karn's rule plus exponential backoff
		// can stretch adversarial loss patterns to several minutes of
		// simulated time (a handful of real events).
		eng.Run(600 * sim.Second)
		if fs.AppBytes > size*1000 {
			return false // over-delivery is impossible
		}
		if done && fs.AppBytes != size*1000 {
			return false // completion implies full in-order delivery
		}
		// With bounded losses and minutes of RTOs, transfers finish.
		return done
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestTCPNeverExceedsWindowProperty: the number of unacknowledged packets
// in flight never exceeds the configured maximum window.
func TestTCPNeverExceedsWindowProperty(t *testing.T) {
	prop := func(maxWinRaw uint8) bool {
		maxWin := float64(maxWinRaw%16) + 2
		cfg := DefaultTCPConfig()
		cfg.MaxCwnd = maxWin
		cfg.SSThresh = maxWin
		eng := sim.NewEngine()
		fs := &stats.Flow{ID: 1}
		pp := &pipe{eng: eng, delay: sim.Millisecond}
		inFlight := 0
		maxSeen := 0
		pp.drop = func(p *pkt.Packet) bool {
			if !p.TCP.IsAck {
				inFlight++
				if inFlight > maxSeen {
					maxSeen = inFlight
				}
				eng.After(pp.delay, func() { inFlight-- })
			}
			return false
		}
		conn := NewTCP(eng, cfg, 1, 0, 1, pp.sendFrom(0), pp.sendFrom(1), fs)
		pp.conn = conn
		conn.StartTransfer(200, nil)
		eng.Run(10 * sim.Second)
		// In-flight at the pipe can briefly exceed cwnd by retransmits in
		// the same RTT; allow +1 slack.
		return maxSeen <= int(maxWin)+1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
