package sim

import (
	"slices"
	"testing"
)

// resetScript schedules one of everything on e — closures, pooled actions, a
// series, a timer that re-arms itself — runs it until the clock cuts it short
// with entries of every kind still pending, and returns the firing order.
func resetScript(e *Engine, tm *Timer) []int {
	var order []int
	note := func(i int) func() { return func() { order = append(order, i) } }
	e.At(3*Microsecond, note(0))
	e.Do(3*Microsecond, &countAction{&order, 1})
	e.At(40*Microsecond, note(2)) // still pending at the cut
	e.Do(50*Microsecond, &countAction{&order, 3})
	s := newListSeries(e, []Time{5 * Microsecond, 4 * Microsecond, 60 * Microsecond}, func(i int) { order = append(order, 10+i) })
	s.schedule()
	ticks := 0
	tm.Bind(e, func() {
		order = append(order, 20)
		if ticks++; ticks < 100 {
			tm.Arm(2 * Microsecond)
		}
	})
	tm.Arm(Microsecond)
	e.Run(30 * Microsecond)
	return order
}

// A Reset engine is indistinguishable from a new one, keeps its capacity,
// and leaves nothing of the run it was cut out of reachable: pooled entries
// are recycled, a timer that was armed reads stopped and can be armed again.
func TestEngineResetIsANewEngine(t *testing.T) {
	var fresh Engine
	var freshTimer Timer
	want := resetScript(&fresh, &freshTimer)
	if fresh.Pending() < 4 {
		t.Fatalf("the script leaves %d entries pending, want one of each kind", fresh.Pending())
	}

	var e Engine
	var tm Timer
	resetScript(&e, &tm)
	e.SetCheck(func() { t.Error("the check hook survived Reset") })
	pooled := e.free.Len()
	e.Reset()
	if e.Now() != 0 || e.Processed() != 0 || e.Pending() != 0 || e.Reserve(0) != 0 {
		t.Fatalf("after Reset: now %d, processed %d, pending %d, next sequence %d",
			e.Now(), e.Processed(), e.Pending(), e.Reserve(0))
	}
	if tm.Armed() {
		t.Fatal("a timer the run left armed still reads armed")
	}
	if e.free.Len() != pooled+2 { // the pending action and the series entry
		t.Fatalf("free list %d -> %d over Reset, want the two pending pooled entries back", pooled, e.free.Len())
	}
	if cap(e.heap) == 0 {
		t.Fatal("Reset dropped the heap's array")
	}
	if got := resetScript(&e, &tm); !slices.Equal(got, want) {
		t.Fatalf("the same script on a Reset engine fired %v, on a new one %v", got, want)
	}
}

func TestFreeListRecallBringsBackWhatItOwns(t *testing.T) {
	type rec struct{ v, wiped int }
	var l FreeList[rec]
	a, b, c := l.Own(&rec{v: 1}), l.Own(&rec{v: 2}), l.Own(&rec{v: 3})
	l.Put(a)
	l.Put(&rec{v: 4}) // pooled, not owned: Recall forgets it
	_, _ = b, c       // out: never Put
	l.Recall(func(r *rec) { *r = rec{wiped: 1} })
	if l.Len() != 3 {
		t.Fatalf("%d structs pooled after Recall, want the 3 owned", l.Len())
	}
	for _, want := range []*rec{c, b, a} {
		if got := l.Get(); got != want || *got != (rec{wiped: 1}) {
			t.Fatalf("Get returned %+v, want the wiped %p", got, want)
		}
	}
	if l.Get() != nil {
		t.Fatal("the list handed out more than it owns")
	}
	if n := testing.AllocsPerRun(10, func() { l.Recall(func(*rec) {}) }); n != 0 {
		t.Fatalf("Recall on a warm list allocates %.0f objects", n)
	}
}
