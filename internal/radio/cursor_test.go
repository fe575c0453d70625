package radio

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ripple/internal/phys"
	"ripple/internal/pkt"
	"ripple/internal/sim"
)

// bruteDelayOrder is the reference for appendRow's delay order: row i's
// positions stably sorted by propagation delay, or nil when that is the
// identity.
func bruteDelayOrder(pl *LinkPlan, i int) []int32 {
	row, _ := transmitRow(pl, i)
	ord := make([]int32, len(row))
	for k := range ord {
		ord[k] = int32(k)
	}
	slices.SortStableFunc(ord, func(a, b int32) int { return int(row[a].pd - row[b].pd) })
	for k, v := range ord {
		if int32(k) != v {
			return ord
		}
	}
	return nil
}

// checkDelayOrder compares every row's derived delay order with the brute
// force and returns how many rows have one.
func checkDelayOrder(t *testing.T, what string, pl *LinkPlan) int {
	t.Helper()
	rows := 0
	for i := 0; i < pl.n; i++ {
		want := bruteDelayOrder(pl, i)
		_, got := transmitRow(pl, i)
		if !slices.Equal(want, got) {
			t.Fatalf("%s: row %d delay order %v, brute force %v", what, i, got, want)
		}
		if got != nil {
			rows++
		}
	}
	return rows
}

func TestDelayOrderMatchesBruteForce(t *testing.T) {
	// Unpruned rows are in ID order: nearly every row needs its permutation.
	cfg := DefaultConfig()
	cfg.PruneSigma = 0
	full := NewLinkPlan(cfg, randomCity(60, 600, 3))
	if rows := checkDelayOrder(t, "unpruned", full); rows < 50 {
		t.Fatalf("only %d of 60 ID-ordered rows were out of delay order", rows)
	}

	// Pruned rows are sorted by mean power, which falls as delay rises: a
	// scattered city needs no permutation at all, built, patched or copied.
	cfg, initial, step := mobileCity(400, 2500, 77)
	pl := NewLinkPlan(cfg, initial)
	if rows := checkDelayOrder(t, "pruned build", pl); rows != 0 {
		t.Fatalf("%d power-sorted rows out of delay order on a scattered city", rows)
	}
	for epoch := 0; epoch < 4; epoch++ {
		pl = pl.Rebuild(step(epoch, 0.05))
		checkDelayOrder(t, fmt.Sprintf("pruned rebuild %d", epoch), pl)
	}
}

// Below one metre the mean power is clamped, so stations 0.9 m and 0.3 m
// away tie in power and sort by ID, while their delays (3 ns and 1 ns) do
// not: the one kind of pruned row that is out of delay order. Its order must
// be derived when the row is built, when a patch merges a mover into it, and
// when an epoch copies it untouched.
func TestDelayOrderSubMetrePair(t *testing.T) {
	cfg := DefaultConfig() // pruned
	pos := []Pos{{0, 0}, {0.9, 0}, {0, 0.3}, {50, 0}, {120, 40}, {400, 300}, {2000, 2000}, {2100, 2000}}
	pl := NewLinkPlan(cfg, pos)
	row, got := transmitRow(pl, 0)
	if row[0].id != 1 || row[1].id != 2 || row[0].dbm != row[1].dbm || row[0].pd <= row[1].pd {
		t.Fatalf("row 0 starts %v: want stations 1 then 2, tied in power, delays descending", row[:2])
	}
	if got == nil || got[0] != 1 || got[1] != 0 {
		t.Fatalf("row 0 delay order %v, want it to start 1, 0", got)
	}
	if rows := checkDelayOrder(t, "built", pl); rows != 1 {
		t.Fatalf("%d rows out of delay order, want 1 (row 0 alone has two sub-metre neighbours)", rows)
	}

	// Station 4 moves closer to station 0: row 0 is patched (a neighbour
	// moved), rows 6 and 7 are copied verbatim.
	moved := slices.Clone(pos)
	moved[4] = Pos{90, 10}
	patched := pl.Rebuild(moved)
	plansEqual(t, NewLinkPlan(cfg, moved), patched)
	if _, ord := transmitRow(patched, 0); checkDelayOrder(t, "patched", patched) != 1 || ord == nil {
		t.Fatal("the patched row 0 lost its delay order")
	}

	// Station 7 moves: row 0 is now a copied row.
	moved2 := slices.Clone(moved)
	moved2[7] = Pos{2050, 2010}
	copied := patched.Rebuild(moved2)
	plansEqual(t, NewLinkPlan(cfg, moved2), copied)
	if _, ord := transmitRow(copied, 0); checkDelayOrder(t, "copied", copied) != 1 || ord == nil {
		t.Fatal("the copied row 0 lost its delay order")
	}
}

// busyLog records, per station, the order in which the medium's carrier
// upcalls reach the MACs.
type busyLog struct {
	nullMAC
	id  int
	log *[]string
	eng *sim.Engine
}

func (b *busyLog) ChannelBusy() {
	*b.log = append(*b.log, fmt.Sprintf("busy %d@%d", b.id, b.eng.Now()))
}
func (b *busyLog) ChannelIdle() {
	*b.log = append(*b.log, fmt.Sprintf("idle %d@%d", b.id, b.eng.Now()))
}

// A transmission's receptions begin and end in (delay, row position) order
// whatever order the row is drawn in: an unpruned row visits a lattice's
// equidistant stations by ID, the sub-metre row visits them by tied power.
func TestReceptionsFireInDelayOrder(t *testing.T) {
	lattice := make([]Pos, 16)
	for i := range lattice {
		lattice[i] = Pos{X: float64(i%4) * 50, Y: float64(i/4) * 50}
	}
	unpruned := idealConfig()
	unpruned.PruneSigma = 0
	for _, c := range []struct {
		name string
		cfg  Config
		pos  []Pos
		tx   int
	}{
		{"unpruned lattice", unpruned, lattice, 5},
		{"sub-metre row", idealConfig(), []Pos{{0, 0}, {0.9, 0}, {0, 0.3}, {50, 0}, {120, 40}}, 0},
	} {
		eng := sim.NewEngine()
		m := NewMediumOn(eng, NewLinkPlan(c.cfg, c.pos), phys.Default(), sim.NewRNG(1, 1))
		var log []string
		for i := range c.pos {
			m.Attach(pkt.NodeID(i), &busyLog{id: i, log: &log, eng: eng})
		}
		row, ord := transmitRow(m.plan, c.tx)
		if ord == nil {
			t.Fatalf("%s: row %d is in delay order; the test needs one that is not", c.name, c.tx)
		}
		const air = 100 * sim.Microsecond
		m.Transmit(&pkt.Frame{Kind: pkt.Data, Tx: pkt.NodeID(c.tx), Rx: pkt.Broadcast, Duration: air})
		eng.Run(sim.Second)

		var want []string
		want = append(want, fmt.Sprintf("busy %d@0", c.tx))
		ord = bruteDelayOrder(m.plan, c.tx)
		for _, k := range ord {
			want = append(want, fmt.Sprintf("busy %d@%d", row[k].id, row[k].pd))
		}
		// Every delay here is far below the airtime: all begins, then the
		// transmitter's own idle, then all ends.
		want = append(want, fmt.Sprintf("idle %d@%d", c.tx, air))
		for _, k := range ord {
			want = append(want, fmt.Sprintf("idle %d@%d", row[k].id, air+sim.Time(row[k].pd)))
		}
		if !slices.Equal(log, want) {
			t.Fatalf("%s: carrier upcalls\n got  %v\n want %v", c.name, log, want)
		}
		if m.OnAir() != 0 {
			t.Fatalf("%s: %d transmission records out after the drain", c.name, m.OnAir())
		}
	}
}

// The slab and the record are reused across transmissions, and the engine
// holds two series entries per transmission however many stations sense it.
func TestTransmissionRecordsAreReused(t *testing.T) {
	eng, m, _ := testMedium(t, idealConfig(), []Pos{{0, 0}, {50, 0}, {100, 0}, {150, 0}})
	for i := 0; i < 5; i++ {
		m.Transmit(dataFrame(0, 1, 100*sim.Microsecond))
		if m.OnAir() != 1 {
			t.Fatalf("OnAir = %d with one frame on the air", m.OnAir())
		}
		// tx-done, 3 begins, 3 ends — behind the two cursors.
		if eng.Pending() != 7 {
			t.Fatalf("Pending = %d, want 7 logical events", eng.Pending())
		}
		eng.Run(eng.Now() + sim.Millisecond)
		if m.OnAir() != 0 || m.freeAir.Len() != 1 {
			t.Fatalf("after the drain: OnAir %d, %d records pooled; want 0 and the one record", m.OnAir(), m.freeAir.Len())
		}
	}
	// A transmission nobody senses holds its record until its tx-done, the
	// one event of its end cursor, and takes no sequence numbers beyond it.
	eng2, far, _ := testMedium(t, idealConfig(), []Pos{{0, 0}, {5000, 0}})
	far.Transmit(dataFrame(0, 1, 100*sim.Microsecond))
	if far.OnAir() != 1 || eng2.Pending() != 1 {
		t.Fatalf("unsensed transmission: OnAir %d, Pending %d; want 1 and 1", far.OnAir(), eng2.Pending())
	}
	eng2.Run(eng2.Now() + sim.Millisecond)
	if far.OnAir() != 0 || eng2.Pending() != 0 || far.freeAir.Len() != 1 {
		t.Fatalf("unsensed transmission drained: OnAir %d, Pending %d, %d records pooled; want 0, 0 and 1",
			far.OnAir(), eng2.Pending(), far.freeAir.Len())
	}
}

// Under quarantine a released slab is never reissued and its entries are
// poisoned, so a reception pointer that outlives its transmission — a
// station.current not cleaned up — is caught the next time that station's
// in-progress list is walked.
func TestQuarantinedSlabCatchesStaleReception(t *testing.T) {
	eng, m, _ := testMedium(t, idealConfig(), []Pos{{0, 0}, {50, 0}, {100, 0}})
	m.Quarantine()
	m.Transmit(pooledFrame(m, 0, 1, 100*sim.Microsecond))
	eng.Run(50 * sim.Microsecond) // mid-frame: station 1 holds the reception
	if len(m.stations[1].current) != 1 {
		t.Fatalf("station 1 holds %d receptions mid-frame, want 1", len(m.stations[1].current))
	}
	stale := m.stations[1].current[0]
	eng.Run(sim.Second)
	if m.freeAir.Len() != 0 || m.OnAir() != 0 {
		t.Fatalf("quarantined record reissued: %d pooled, %d on air", m.freeAir.Len(), m.OnAir())
	}
	if stale.dst != nil {
		t.Fatal("released slab entry still names its receiver")
	}
	// The bug the poison exists for: the pointer is still in the list.
	m.stations[1].current = append(m.stations[1].current, stale)
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "reception liveness") {
			t.Fatalf("stale reception went unnoticed: recovered %v", r)
		}
	}()
	m.Transmit(pooledFrame(m, 2, 1, 100*sim.Microsecond))
	eng.Run(2 * sim.Second)
}
