package core

import (
	"testing"

	"ripple/internal/pkt"
	"ripple/internal/routing"
	"ripple/internal/sim"
)

// TestLocalAggOnRelay reproduces Remark 3's forwarder behaviour: station 1
// forwards flow 1 (0→3) and also originates its own flow 2 (1→3); with
// LocalAggOnRelay its relays carry both multi-hop and local packets in one
// transmission.
func TestLocalAggOnRelay(t *testing.T) {
	opt := Options{LocalAggOnRelay: true}
	// Space stations so relays are mandatory (adjacent links only).
	positions := linePositions(4)
	for i := range positions {
		positions[i].X = float64(i * 180)
	}
	paths := map[int]routing.Path{
		1: {0, 1, 2, 3},
		2: {1, 2, 3},
	}
	h := newHarness(t, positions, idealRadio(), paths, opt)
	h.inject(0, 1, 20, 3)
	h.inject(1, 2, 20, 3)
	h.eng.Run(300 * sim.Millisecond)

	if got := len(h.delivered[3]); got != 40 {
		t.Fatalf("destination received %d packets, want 40", got)
	}
	mixed := 0
	for _, f := range h.frames {
		if f.Kind != pkt.Data || f.Tx != 1 {
			continue
		}
		flows := map[int]bool{}
		for _, p := range f.Packets {
			flows[p.FlowID] = true
		}
		if flows[1] && flows[2] {
			mixed++
		}
	}
	if mixed == 0 {
		t.Fatal("no relay carried both multi-hop and local packets")
	}
}

// TestLocalAggOffKeepsFlowsSeparate is the control: without the option no
// frame mixes flows.
func TestLocalAggOffKeepsFlowsSeparate(t *testing.T) {
	positions := linePositions(4)
	for i := range positions {
		positions[i].X = float64(i * 180)
	}
	paths := map[int]routing.Path{
		1: {0, 1, 2, 3},
		2: {1, 2, 3},
	}
	h := newHarness(t, positions, idealRadio(), paths, Options{})
	h.inject(0, 1, 20, 3)
	h.inject(1, 2, 20, 3)
	h.eng.Run(300 * sim.Millisecond)

	if got := len(h.delivered[3]); got != 40 {
		t.Fatalf("destination received %d packets, want 40", got)
	}
	for _, f := range h.frames {
		if f.Kind != pkt.Data {
			continue
		}
		flows := map[int]bool{}
		for _, p := range f.Packets {
			flows[p.FlowID] = true
		}
		if len(flows) > 1 {
			t.Fatalf("frame from %d mixes flows without LocalAggOnRelay", f.Tx)
		}
	}
}

// TestLocalAggReclaimOnLostAck: piggybacked packets whose mTXOP dies are
// reclaimed and eventually delivered via the forwarder's own TXOPs.
func TestLocalAggReclaimOnLostAck(t *testing.T) {
	opt := Options{LocalAggOnRelay: true}
	// Lossy last hop: some mTXOPs fail end-to-end.
	rc := idealRadio()
	rc.ShadowSigmaDB = 8
	positions := linePositions(4)
	for i := range positions {
		positions[i].X = float64(i * 170)
	}
	paths := map[int]routing.Path{
		1: {0, 1, 2, 3},
		2: {1, 2, 3},
	}
	h := newHarness(t, positions, rc, paths, opt)
	h.inject(0, 1, 30, 3)
	h.inject(1, 2, 30, 3)
	h.eng.Run(2 * sim.Second)

	// Every flow-2 packet must arrive exactly once despite losses.
	seen := map[uint64]int{}
	for _, p := range h.delivered[3] {
		if p.FlowID == 2 {
			seen[p.UID]++
		}
	}
	if len(seen) != 30 {
		t.Fatalf("flow 2 delivered %d distinct packets, want 30", len(seen))
	}
	for uid, n := range seen {
		if n != 1 {
			t.Fatalf("packet %d delivered %d times", uid, n)
		}
	}
}
