package forward

import (
	"testing"

	"ripple/internal/phys"
	"ripple/internal/pkt"
	"ripple/internal/routing"
	"ripple/internal/sim"
)

// TestNAVExtendsNotShrinks: a shorter overheard NAV must not cut an
// existing longer one short.
func TestNAVExtendsNotShrinks(t *testing.T) {
	paths := map[int]routing.Path{1: {0, 1}}
	h := newHarness(t, linePositions(2), idealRadio(), paths, unicast(1, 1))
	u, ok := h.schemes[0].(*Unicast)
	if !ok {
		t.Fatal("scheme is not *Unicast")
	}
	u.setNAV(100 * sim.Microsecond)
	u.setNAV(50 * sim.Microsecond) // shorter: ignored
	if u.navUntil != 100*sim.Microsecond {
		t.Fatalf("navUntil = %v, want 100µs", u.navUntil)
	}
	u.setNAV(200 * sim.Microsecond) // longer: extends
	if u.navUntil != 200*sim.Microsecond {
		t.Fatalf("navUntil = %v, want 200µs", u.navUntil)
	}
}

// TestNAVExpiryReleasesContender: after the NAV elapses on an idle channel
// the station's pending transmission proceeds.
func TestNAVExpiryReleasesContender(t *testing.T) {
	paths := map[int]routing.Path{1: {0, 1}}
	h := newHarness(t, linePositions(2), idealRadio(), paths, unicast(1, 0)) // no RTS for own frames; NAV still honoured
	u := h.schemes[0].(*Unicast)
	// NAV set externally (as if an RTS was overheard), then traffic queued.
	u.setNAV(5 * sim.Millisecond)
	h.inject(0, 1, 1, 1)
	h.eng.Run(2 * sim.Millisecond)
	if len(h.delivered[1]) != 0 {
		t.Fatal("transmitted during NAV")
	}
	h.eng.Run(20 * sim.Millisecond)
	if len(h.delivered[1]) != 1 {
		t.Fatal("did not transmit after NAV expiry")
	}
}

// TestCTSNavDurCoversRest: the CTS inherits the RTS NAV minus its own slot.
func TestCTSNavDurCoversRest(t *testing.T) {
	p := phys.Default()
	paths := map[int]routing.Path{1: {0, 1}}
	h := newHarness(t, linePositions(2), idealRadio(), paths, unicast(1, 1))
	// Copies: a traced frame is valid only during the call.
	var rts, cts *pkt.Frame
	h.med.Trace = func(_ sim.Time, ev string, _ pkt.NodeID, f *pkt.Frame) {
		if ev != "tx" {
			return
		}
		c := *f
		switch f.Kind {
		case pkt.Rts:
			if rts == nil {
				rts = &c
			}
		case pkt.Cts:
			if cts == nil {
				cts = &c
			}
		}
	}
	h.inject(0, 1, 1, 1)
	h.eng.Run(10 * sim.Millisecond)
	if rts == nil || cts == nil {
		t.Fatal("RTS/CTS not observed")
	}
	want := rts.NavDur - p.SIFS - p.CTSTime()
	if cts.NavDur != want {
		t.Fatalf("CTS NavDur = %v, want %v", cts.NavDur, want)
	}
	if rts.NavDur <= 0 || cts.NavDur <= 0 {
		t.Fatal("NAV durations must be positive")
	}
}

// TestRTSMultiHopRelay: RTS/CTS composes with multi-hop forwarding.
func TestRTSMultiHopRelay(t *testing.T) {
	paths := map[int]routing.Path{1: {0, 1, 2, 3}}
	h := newHarness(t, linePositions(4), idealRadio(), paths, unicast(16, 1))
	h.inject(0, 1, 20, 3)
	h.eng.Run(200 * sim.Millisecond)
	if got := len(h.delivered[3]); got != 20 {
		t.Fatalf("delivered %d/20 over the protected multi-hop path", got)
	}
}

// TestNAVDoesNotBlockSIFSResponses: a station under NAV still answers an
// incoming data frame with its ACK (only contention is deferred).
func TestNAVDoesNotBlockSIFSResponses(t *testing.T) {
	paths := map[int]routing.Path{1: {0, 1}}
	h := newHarness(t, linePositions(2), idealRadio(), paths, unicast(1, 0))
	// Receiver's NAV set; the sender's data must still be ACKed.
	h.schemes[1].(*Unicast).setNAV(50 * sim.Millisecond)
	h.inject(0, 1, 3, 1)
	h.eng.Run(20 * sim.Millisecond)
	if len(h.delivered[1]) != 3 {
		t.Fatalf("delivered %d/3 with receiver under NAV", len(h.delivered[1]))
	}
	if h.counters[0].AckTimeouts != 0 {
		t.Fatal("ACKs must not be suppressed by NAV")
	}
}
