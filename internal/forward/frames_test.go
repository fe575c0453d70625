package forward

import (
	"testing"

	"ripple/internal/pkt"
	"ripple/internal/routing"
	"ripple/internal/sim"
)

// drained fails the test unless every frame the run drew from the medium's
// pool has come back — each creation site hands its frame to the air or
// releases it, and nobody keeps one — and with them every transmission
// record: no reception is left to end.
func (h *harness) drained(t *testing.T) {
	t.Helper()
	gets, recycled := h.med.Frames().Counters()
	if gets == 0 {
		t.Fatal("no frame was drawn from the pool")
	}
	if inUse := h.med.Frames().InUse(); inUse != 0 || recycled != gets {
		t.Fatalf("%d of %d frames never returned to the pool (%d recycled)", inUse, gets, recycled)
	}
	if onAir := h.med.OnAir(); onAir != 0 {
		t.Fatalf("%d transmission records never returned to the medium's pool", onAir)
	}
}

func TestFramesReturnToPoolOnceTheAirDrains(t *testing.T) {
	lossy := idealRadio()
	lossy.BitErrorRate = 2e-5 // some exchanges fail and retry
	schemes := map[string]func(Env) Scheme{
		"DCF":     unicast(1, 0),
		"AFR":     unicast(16, 0),
		"DCF/RTS": unicast(1, 1),
		"PreExOR": exor(false),
		"MCExOR":  exor(true),
	}
	for name, mk := range schemes {
		t.Run(name, func(t *testing.T) {
			paths := map[int]routing.Path{1: {0, 1, 2, 3}, 2: {3, 2, 1, 0}}
			h := newHarness(t, linePositions(4), lossy, paths, mk)
			h.inject(0, 1, 40, 3)
			h.inject(3, 2, 40, 0)
			h.eng.Run(2 * sim.Second)
			if len(h.delivered[3]) == 0 || len(h.delivered[0]) == 0 {
				t.Fatalf("delivered %d and %d packets", len(h.delivered[3]), len(h.delivered[0]))
			}
			h.drained(t)
		})
	}
}

// With the peer gone no CTS ever comes: every CTS timeout gives up on the
// data frame parked for after the handshake.
func TestRTSTimeoutReleasesParkedDataFrame(t *testing.T) {
	paths := map[int]routing.Path{1: {0, 1}}
	h := newHarness(t, linePositions(2), idealRadio(), paths, unicast(1, 1))
	h.schemes[1].Crash()
	h.med.SetDown(1, true)
	h.inject(0, 1, 2, 1)
	h.eng.Run(sim.Second)
	if h.counters[0].MACDrops != 2 || h.counters[0].AckTimeouts == 0 {
		t.Fatalf("MACDrops = %d, AckTimeouts = %d: the handshake did not time out to the retry limit",
			h.counters[0].MACDrops, h.counters[0].AckTimeouts)
	}
	h.drained(t)
}

// A delayed transmission that finds its station down, or its exchange
// closed, is skipped; the frame it carried goes back to the pool.
func TestDelayedTxSkipReleasesFrame(t *testing.T) {
	for _, c := range []struct {
		name    string
		on      pkt.FrameKind // the reception after which...
		at      pkt.NodeID    // ...this station crashes, with a delayed frame pending
		recover bool          // and reboots at once: up again, exchange closed
	}{
		{"station down", pkt.Rts, 1, false},
		{"exchange closed", pkt.Cts, 0, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			paths := map[int]routing.Path{1: {0, 1}}
			h := newHarness(t, linePositions(2), idealRadio(), paths, unicast(1, 1))
			fired := false
			h.med.Trace = func(_ sim.Time, ev string, node pkt.NodeID, f *pkt.Frame) {
				if fired || ev != "rx" || node != c.at || f.Kind != c.on {
					return
				}
				fired = true
				h.eng.After(0, func() { // after the reception upcall scheduled the reply
					h.schemes[c.at].Crash()
					if c.recover {
						h.schemes[c.at].Recover()
					}
				})
			}
			h.inject(0, 1, 1, 1)
			sent := func() uint64 { return h.counters[0].TxFrames + h.counters[1].TxFrames }
			h.eng.Run(200 * sim.Microsecond)
			if !fired || sent() != map[bool]uint64{false: 1, true: 2}[c.recover] {
				t.Fatalf("fired %v, %d frames sent: the delayed transmission was not skipped", fired, sent())
			}
			h.eng.Run(sim.Second)
			h.drained(t)
		})
	}
}
