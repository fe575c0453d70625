package radio

import (
	"slices"
	"testing"

	"ripple/internal/phys"
	"ripple/internal/pkt"
	"ripple/internal/sim"
)

// pruneDistance returns a distance safely beyond the pruning cutoff of cfg:
// mean power more than PruneSigma×ShadowSigmaDB below the CS threshold.
func pruneDistance(cfg Config) float64 {
	return 1.05 * cfg.rangeFor(cfg.CSThreshDBm-cfg.PruneSigma*cfg.ShadowSigmaDB)
}

func TestMediumLinkCacheDistance(t *testing.T) {
	positions := []Pos{{0, 0}, {120, 0}, {0, 50}}
	_, m, _ := testMedium(t, DefaultConfig(), positions)
	for a := range positions {
		for b := range positions {
			want := Dist(positions[a], positions[b])
			if got := m.Distance(pkt.NodeID(a), pkt.NodeID(b)); got != want {
				t.Fatalf("Distance(%d,%d) = %g, want %g", a, b, got, want)
			}
		}
	}
}

func TestMediumUnprunedNeighborsKeepIDOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PruneSigma = 0
	// Station 2 is closer to 0 than station 1: power order differs from ID
	// order, but with pruning off the list must stay in ID order (that is
	// what preserves the pre-cache RNG stream bit for bit).
	_, m, _ := testMedium(t, cfg, []Pos{{0, 0}, {200, 0}, {50, 0}})
	got := m.Neighbors(0)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("unpruned neighbors = %v, want [1 2] (ID order)", got)
	}
}

func TestMediumPrunedNeighborsSortedByPower(t *testing.T) {
	cfg := DefaultConfig()
	_, m, _ := testMedium(t, cfg, []Pos{{0, 0}, {200, 0}, {50, 0}})
	got := m.Neighbors(0)
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("pruned neighbors = %v, want [2 1] (strongest first)", got)
	}
}

func TestMediumPrunesFarStations(t *testing.T) {
	cfg := DefaultConfig()
	far := pruneDistance(cfg)
	_, m, _ := testMedium(t, cfg, []Pos{{0, 0}, {100, 0}, {far, 0}})
	got := m.Neighbors(0)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("neighbors = %v, want [1] (station 2 at %.0fm pruned)", got, far)
	}
	// Pruning is per-pair: stations 1 and 2 are even farther apart, so 2
	// still sees nobody and 1 sees only 0.
	if got := m.Neighbors(2); len(got) != 0 {
		t.Fatalf("far station's neighbors = %v, want none", got)
	}
}

func TestMediumPrunedForwarderCountsAsShadowed(t *testing.T) {
	cfg := DefaultConfig()
	far := pruneDistance(cfg)
	eng, m, macs := testMedium(t, cfg, []Pos{{0, 0}, {100, 0}, {far, 0}})
	f := dataFrame(0, pkt.Broadcast, 50*sim.Microsecond)
	f.FwdList = []pkt.NodeID{2, 1} // the pruned station is a listed forwarder
	m.Transmit(f)
	eng.Run(sim.Second)
	if m.Counters.FramesShadowed == 0 {
		t.Fatal("pruned forwarder-list member must count as a shadowing loss")
	}
	if len(macs[2].rx) != 0 || macs[2].busy != 0 {
		t.Fatal("pruned station must neither sense nor decode")
	}
}

func TestMediumPruningExactWithoutShadowing(t *testing.T) {
	// With ShadowSigmaDB == 0 the pruning predicate equals the runtime CS
	// check, so a pruned medium and an unpruned one deliver identically.
	run := func(prune float64) (Counters, int) {
		cfg := idealConfig()
		cfg.PruneSigma = prune
		eng, m, macs := testMedium(t, cfg, []Pos{{0, 0}, {100, 0}, {600, 0}})
		for i := 0; i < 50; i++ {
			at := sim.Time(i) * 200 * sim.Microsecond
			eng.At(at, func() { m.Transmit(dataFrame(0, 1, 50*sim.Microsecond)) })
		}
		eng.Run(sim.Second)
		return m.Counters, len(macs[1].rx)
	}
	cUnpruned, rxUnpruned := run(0)
	cPruned, rxPruned := run(DefaultPruneSigma)
	if cUnpruned != cPruned || rxUnpruned != rxPruned {
		t.Fatalf("sigma=0 pruning diverged: %+v/%d vs %+v/%d",
			cUnpruned, rxUnpruned, cPruned, rxPruned)
	}
}

func TestMediumPoolingIsDeterministic(t *testing.T) {
	// Two identical runs on one medium config must produce identical
	// counters — the inflight/event pools must not leak state between
	// frames.
	run := func() Counters {
		cfg := DefaultConfig()
		eng, m, _ := testMedium(t, cfg, []Pos{{0, 0}, {150, 0}, {250, 0}})
		for i := 0; i < 200; i++ {
			at := sim.Time(i) * 150 * sim.Microsecond
			eng.At(at, func() {
				f := dataFrame(0, pkt.Broadcast, 100*sim.Microsecond)
				f.FwdList = []pkt.NodeID{2, 1}
				m.Transmit(f)
			})
			// Overlapping counter-traffic exercises the interference path
			// and half-duplex blocking with pooled inflights.
			eng.At(at+30*sim.Microsecond, func() {
				if !m.Transmitting(2) {
					m.Transmit(dataFrame(2, 1, 100*sim.Microsecond))
				}
			})
		}
		eng.Run(sim.Second)
		return m.Counters
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("pooled medium runs diverged: %+v vs %+v", a, b)
	}
}

// TestPrunedShadowCountPinned pins the counters of a pruned run in which
// addressed receivers — forwarder-list members and unicast receivers — are
// pruned from the transmitter's row often, so the count of such shadowing
// losses, which Transmit keeps apart from its row loop, is exercised
// frame after frame. pruned, the number of (frame, addressed receiver)
// pairs the power predicate prunes, is asserted above zero, so the pin
// cannot hold for want of the case it is about.
func TestPrunedShadowCountPinned(t *testing.T) {
	cfg := DefaultConfig()
	pos := randomCity(300, 8000, 8)
	pl := NewLinkPlan(cfg, pos)
	eng := sim.NewEngine()
	m := NewMediumOn(eng, pl, phys.Default(), sim.NewRNG(3, 1))
	for i := range pos {
		m.Attach(pkt.NodeID(i), &nullMAC{})
	}
	rng := sim.NewRNG(4, 0)
	keeps := func(a, b pkt.NodeID) bool {
		return cfg.MeanRxPowerDBm(Dist(pos[a], pos[b])) >= pl.pruneCutoff
	}
	pruned := 0
	for k := range 600 {
		tx := pkt.NodeID(rng.IntN(len(pos)))
		rx := pkt.Broadcast
		if k%2 == 1 {
			rx = pkt.NodeID(rng.IntN(len(pos)))
		}
		// Four distinct forwarders, the transmitter among them at times.
		var fwd []pkt.NodeID
		for len(fwd) < 4 {
			if id := pkt.NodeID(rng.IntN(len(pos))); !slices.Contains(fwd, id) {
				fwd = append(fwd, id)
			}
		}
		for _, id := range fwd {
			if id != tx && !keeps(tx, id) {
				pruned++
			}
		}
		if rx >= 0 && rx != tx && !slices.Contains(fwd, rx) && !keeps(tx, rx) {
			pruned++
		}
		f := dataFrame(tx, rx, 50*sim.Microsecond)
		f.FwdList = fwd
		eng.At(sim.Time(k)*sim.Millisecond, func() { m.Transmit(f) })
	}
	eng.Run(sim.Second)
	if pruned == 0 {
		t.Fatal("no addressed receiver was pruned: the pin checks nothing")
	}
	want := Counters{FramesSent: 600, FramesDelivered: 719, FramesShadowed: 2671}
	if pruned != 1249 || m.Counters != want {
		t.Fatalf("pruned addressed receivers %d, counters %+v; pinned %d, %+v", pruned, m.Counters, 1249, want)
	}
}
