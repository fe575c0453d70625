package forward

import (
	"testing"

	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
)

func TestRTSCTSExchangeDelivers(t *testing.T) {
	paths := map[int]routing.Path{1: {0, 1}}
	h := newHarness(t, linePositions(2), idealRadio(), paths, unicast(1, 1)) // protect every frame
	h.inject(0, 1, 5, 1)
	h.eng.Run(100 * sim.Millisecond)
	if got := len(h.delivered[1]); got != 5 {
		t.Fatalf("delivered %d packets, want 5", got)
	}
	// Per packet: RTS + DATA from the sender, CTS + ACK from the receiver.
	if h.counters[0].TxFrames != 10 {
		t.Fatalf("sender transmitted %d frames, want 10 (RTS+DATA each)", h.counters[0].TxFrames)
	}
	if h.counters[1].TxFrames != 10 {
		t.Fatalf("receiver transmitted %d frames, want 10 (CTS+ACK each)", h.counters[1].TxFrames)
	}
	if h.counters[0].AckTimeouts != 0 {
		t.Fatalf("timeouts = %d on a clean link", h.counters[0].AckTimeouts)
	}
}

func TestRTSThresholdSkipsSmallFrames(t *testing.T) {
	paths := map[int]routing.Path{1: {0, 1}}
	h := newHarness(t, linePositions(2), idealRadio(), paths, unicast(1, 100000)) // threshold far above any frame
	h.inject(0, 1, 5, 1)
	h.eng.Run(100 * sim.Millisecond)
	if got := len(h.delivered[1]); got != 5 {
		t.Fatalf("delivered %d packets, want 5", got)
	}
	if h.counters[0].TxFrames != 5 {
		t.Fatalf("sender transmitted %d frames, want 5 (no RTS below threshold)", h.counters[0].TxFrames)
	}
}

// TestRTSCTSMitigatesHiddenTerminals is the textbook scenario: A and C are
// mutually hidden, both saturating the middle station B with long (16-
// aggregate) frames. Under plain contention the long data frames collide at
// B constantly; with RTS/CTS only the short RTS frames collide and B's CTS
// silences the loser, so far more data survives.
func TestRTSCTSMitigatesHiddenTerminals(t *testing.T) {
	// A(0) — 200m — B(1) — 200m — C(2): A↔C at 400 m.
	// Narrow carrier sensing (CS = RX range) so A cannot sense C at all.
	rc := idealRadio()
	rc.CSThreshDBm = rc.RXThreshDBm
	positions := []radio.Pos{{X: 0}, {X: 200}, {X: 400}}
	paths := map[int]routing.Path{1: {0, 1}, 2: {2, 1}}

	run := func(rtsThresh int) (delivered int) {
		h := newHarness(t, positions, rc, paths, unicast(16, rtsThresh))
		// Saturate both senders with far more than fits in the run, and
		// keep refilling so the queues never drain.
		refill := func() {}
		refill = func() {
			for h.schemes[0].QueueLen() < 40 {
				h.inject(0, 1, 1, 1)
			}
			for h.schemes[2].QueueLen() < 40 {
				h.inject(2, 2, 1, 1)
			}
			h.eng.After(sim.Millisecond, refill)
		}
		refill()
		h.eng.Run(200 * sim.Millisecond)
		return len(h.delivered[1])
	}

	gotDCF := run(0)
	gotRTS := run(1)
	t.Logf("hidden saturation, 16-aggregate frames: plain=%d delivered, RTS/CTS=%d", gotDCF, gotRTS)
	if gotRTS < gotDCF*3/2 {
		t.Fatalf("RTS/CTS should substantially outdeliver plain contention under hidden terminals: %d vs %d",
			gotRTS, gotDCF)
	}
}

// TestNAVSilencesOverhearingStation: a third station with pending traffic
// must hold off for the NAV duration announced by an overheard RTS.
func TestNAVSilencesOverhearingStation(t *testing.T) {
	// All three stations in range of each other.
	positions := []radio.Pos{{X: 0}, {X: 100}, {X: 100, Y: 100}}
	paths := map[int]routing.Path{1: {0, 1}, 2: {2, 1}}
	h := newHarness(t, positions, idealRadio(), paths, unicast(1, 1))
	h.inject(0, 1, 20, 1)
	h.inject(2, 2, 20, 1)
	h.eng.Run(100 * sim.Millisecond)
	if got := len(h.delivered[1]); got != 40 {
		t.Fatalf("delivered %d packets, want 40", got)
	}
	// NAV cannot prevent same-slot (regular) collisions, but those hit
	// only the cheap RTS frames: every data frame must go through
	// unscathed, which the complete delivery above already proves. Check
	// that collisions stayed a small fraction of the 40 exchanges.
	if h.med.Counters.FramesCollided > 15 {
		t.Fatalf("collisions = %d with full NAV coverage", h.med.Counters.FramesCollided)
	}
}
