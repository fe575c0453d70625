package stats

import (
	"math"
	"testing"
	"testing/quick"

	"ripple/internal/sim"
)

func TestNoteArrivalReorderCounting(t *testing.T) {
	var f Flow
	f.NoteArrival(0, sim.Millisecond)
	f.NoteArrival(1, sim.Millisecond)
	f.NoteArrival(3, sim.Millisecond) // gap: not a reorder yet
	f.NoteArrival(2, sim.Millisecond) // arrives after 3 → reordered
	f.NoteArrival(4, sim.Millisecond)
	if f.Reordered != 1 {
		t.Fatalf("Reordered = %d, want 1", f.Reordered)
	}
	if f.PktsDelivered != 5 {
		t.Fatalf("PktsDelivered = %d", f.PktsDelivered)
	}
	if got := f.ReorderRate(); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("ReorderRate = %v, want 0.2", got)
	}
}

func TestNoteArrivalFirstPacketNotReordered(t *testing.T) {
	var f Flow
	f.NoteArrival(5, 0) // first arrival, even with nonzero seq
	if f.Reordered != 0 {
		t.Fatal("first arrival cannot be a reorder")
	}
}

func TestDelayAccounting(t *testing.T) {
	var f Flow
	f.NoteArrival(0, 2*sim.Millisecond)
	f.NoteArrival(1, 4*sim.Millisecond)
	if f.MeanDelay() != 3*sim.Millisecond {
		t.Fatalf("MeanDelay = %v", f.MeanDelay())
	}
}

func TestThroughputMbps(t *testing.T) {
	f := Flow{AppBytes: 1250_000} // 10 Mb
	if got := f.ThroughputMbps(sim.Second); math.Abs(got-10) > 1e-9 {
		t.Fatalf("ThroughputMbps = %v, want 10", got)
	}
	if f.ThroughputMbps(0) != 0 {
		t.Fatal("zero duration must not divide by zero")
	}
}

func TestVoIPLossRate(t *testing.T) {
	f := Flow{VoIPSent: 100, VoIPOnTime: 93}
	if got := f.VoIPLossRate(); math.Abs(got-0.07) > 1e-9 {
		t.Fatalf("VoIPLossRate = %v", got)
	}
	var empty Flow
	if empty.VoIPLossRate() != 0 {
		t.Fatal("no packets sent → zero loss")
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{5, 5, 5}); math.Abs(got-1) > 1e-9 {
		t.Fatalf("equal shares index = %v, want 1", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("winner-takes-all index = %v, want 1/n", got)
	}
	if JainIndex(nil) != 0 || JainIndex([]float64{0, 0}) != 0 {
		t.Fatal("degenerate inputs must return 0")
	}
	// Scale invariance.
	a := JainIndex([]float64{1, 2, 3})
	b := JainIndex([]float64{10, 20, 30})
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("Jain index must be scale-invariant: %v vs %v", a, b)
	}
}

// Property: Jain index stays within [1/n, 1] for positive allocations.
func TestJainIndexBoundsProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v) + 1 // strictly positive
		}
		j := JainIndex(xs)
		n := float64(len(xs))
		return j >= 1/n-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: reorder count never exceeds deliveries.
func TestReorderBoundProperty(t *testing.T) {
	prop := func(seqs []int16) bool {
		var f Flow
		for _, s := range seqs {
			f.NoteArrival(int64(s), sim.Microsecond)
		}
		return f.Reordered <= f.PktsDelivered
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
