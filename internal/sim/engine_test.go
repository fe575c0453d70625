package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30*Microsecond, func() { got = append(got, 3) })
	e.At(10*Microsecond, func() { got = append(got, 1) })
	e.At(20*Microsecond, func() { got = append(got, 2) })
	e.Run(Second)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEngineTieBreaksByInsertionOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*Microsecond, func() { got = append(got, i) })
	}
	e.Run(Second)
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie-break order = %v, want ascending", got)
		}
	}
}

func TestEngineNowAdvancesDuringRun(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(42*Microsecond, func() { at = e.Now() })
	e.Run(Second)
	if at != 42*Microsecond {
		t.Fatalf("Now inside event = %v, want 42µs", at)
	}
	if e.Now() != Second {
		t.Fatalf("Now after Run = %v, want 1s", e.Now())
	}
}

func TestEngineAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(10*Microsecond, func() {
		e.After(5*Microsecond, func() { at = e.Now() })
	})
	e.Run(Second)
	if at != 15*Microsecond {
		t.Fatalf("After fired at %v, want 15µs", at)
	}
}

func TestEngineCancelPreventsExecution(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(10*Microsecond, func() { fired = true })
	e.Cancel(ev)
	e.Run(Second)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() should report true")
	}
}

func TestEngineCancelIsIdempotentAndNilSafe(t *testing.T) {
	e := NewEngine()
	e.Cancel(nil)
	ev := e.At(10, func() {})
	e.Cancel(ev)
	e.Cancel(ev)
	e.Run(Second)
}

func TestEngineCancelFiredEventIsNoop(t *testing.T) {
	e := NewEngine()
	ev := e.At(1, func() {})
	e.Run(Second)
	e.Cancel(ev) // must not panic or corrupt the heap
	e.At(2*Second, func() {})
	e.Run(3 * Second)
}

func TestEngineRescheduleMovesEvent(t *testing.T) {
	e := NewEngine()
	var at Time
	ev := e.At(10*Microsecond, func() { at = e.Now() })
	e.Reschedule(ev, 50*Microsecond)
	e.Run(Second)
	if at != 50*Microsecond {
		t.Fatalf("rescheduled event fired at %v, want 50µs", at)
	}
}

func TestEngineRescheduleRearmsFiredEvent(t *testing.T) {
	e := NewEngine()
	count := 0
	ev := e.At(10, func() { count++ })
	e.Run(Microsecond)
	e.Reschedule(ev, 2*Microsecond)
	e.Run(Second)
	if count != 2 {
		t.Fatalf("event fired %d times, want 2", count)
	}
}

func TestEventPendingFollowsTheHeap(t *testing.T) {
	e := NewEngine()
	var nilEv *Event
	if nilEv.Pending() {
		t.Fatal("nil event reports pending")
	}
	ev := e.At(10, func() {})
	if !ev.Pending() {
		t.Fatal("scheduled event not pending")
	}
	e.Cancel(ev)
	if ev.Pending() {
		t.Fatal("cancelled event still pending")
	}
	e.Reschedule(ev, 20)
	if !ev.Pending() {
		t.Fatal("rescheduled event not pending")
	}
	e.Run(Second)
	if ev.Pending() {
		t.Fatal("fired event still pending")
	}
}

func TestEngineRunStopsAtUntil(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(2*Second, func() { fired = true })
	e.Run(Second)
	if fired {
		t.Fatal("event beyond until fired")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run(3 * Second)
	if !fired {
		t.Fatal("event not fired on extended run")
	}
}

func TestEnginePastSchedulingClampsToNow(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(10*Microsecond, func() {
		e.At(5*Microsecond, func() { at = e.Now() }) // in the past
	})
	e.Run(Second)
	if at != 10*Microsecond {
		t.Fatalf("past event fired at %v, want clamped to 10µs", at)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(1, func() { count++; e.Stop() })
	e.At(2, func() { count++ })
	e.Run(Second)
	if count != 1 {
		t.Fatalf("processed %d events after Stop, want 1", count)
	}
}

func TestEngineProcessedCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.At(Time(i), func() {})
	}
	e.Run(Second)
	if e.Processed() != 7 {
		t.Fatalf("Processed = %d, want 7", e.Processed())
	}
}

// Property: for any batch of event times, execution order is sorted.
func TestEngineOrderingProperty(t *testing.T) {
	prop := func(offsets []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, off := range offsets {
			at := Time(off) * Microsecond
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run(Second)
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// countAction is a reusable Action for pooled-event tests.
type countAction struct {
	order *[]int
	id    int
}

func (a *countAction) Run() { *a.order = append(*a.order, a.id) }

func TestEngineDoOrdersLikeAt(t *testing.T) {
	// Do-scheduled (pooled) and At-scheduled events share one clock and one
	// insertion sequence: same-instant events fire in scheduling order
	// regardless of which path scheduled them.
	e := NewEngine()
	var order []int
	e.At(5*Microsecond, func() { order = append(order, 0) })
	e.Do(5*Microsecond, &countAction{&order, 1})
	e.At(5*Microsecond, func() { order = append(order, 2) })
	e.Do(3*Microsecond, &countAction{&order, 3})
	e.Run(Second)
	want := []int{3, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// chainAction re-schedules itself until limit firings, so at most one
// pooled event is ever pending — the recycling fast path.
type chainAction struct {
	e     *Engine
	n     int
	limit int
}

func (a *chainAction) Run() {
	a.n++
	if a.n < a.limit {
		a.e.Do(a.e.Now()+1, a)
	}
}

func TestEngineDoRecyclesEvents(t *testing.T) {
	e := NewEngine()
	chain := &chainAction{e: e, limit: 1000}
	e.Do(0, chain)
	e.Run(Second)
	if chain.n != 1000 {
		t.Fatalf("fired %d pooled events, want 1000", chain.n)
	}
	// Sequential events recycle through the free list: the pool must be a
	// couple of structs, not one per event.
	if e.free.Len() == 0 || e.free.Len() > 4 {
		t.Fatalf("free list holds %d events after 1000 sequential Do, want 1..4", e.free.Len())
	}
}

func TestEngineDoZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	var order []int
	act := &countAction{&order, 1}
	// Warm up the free list and the heap's backing array.
	e.Do(0, act)
	e.Run(Microsecond)
	allocs := testing.AllocsPerRun(1000, func() {
		order = order[:0]
		e.Do(e.Now(), act)
		e.Run(e.Now() + 1)
	})
	if allocs > 0 {
		t.Fatalf("steady-state Do+Run allocates %.1f objects/op, want 0", allocs)
	}
}

func TestEngineCancelAfterRecycleIsSafe(t *testing.T) {
	// A fired At-event's handle must stay inert even while the engine is
	// recycling pooled events underneath: At-events are never pushed to
	// the free list, so a stale Cancel can only ever hit the caller's own
	// (fired) event, never a pooled event reusing its memory.
	e := NewEngine()
	var order []int
	handle := e.At(1, func() { order = append(order, 0) })
	e.Run(Microsecond)

	// Churn the pool, then leave one pooled event pending.
	act := &countAction{&order, 1}
	for i := 0; i < 10; i++ {
		e.Do(e.Now()+Time(i), act)
	}
	e.Run(100 * Microsecond)
	e.Do(Millisecond, &countAction{&order, 2})

	e.Cancel(handle) // stale cancel: must not disturb the pending pooled event
	e.Run(Second)
	if got := order[len(order)-1]; got != 2 {
		t.Fatalf("pending pooled event lost after stale Cancel (last fired id = %d, want 2)", got)
	}
}

func TestEngineRescheduleAfterRecycleRearmsOwnEvent(t *testing.T) {
	e := NewEngine()
	count := 0
	handle := e.At(1, func() { count++ })
	e.Run(Microsecond)

	var order []int
	act := &countAction{&order, 1}
	for i := 0; i < 10; i++ {
		e.Do(e.Now()+Time(i), act)
	}
	e.Run(100 * Microsecond)

	// Re-arming the fired handle after pool churn must fire the caller's
	// own callback exactly once more, not any pooled action.
	e.Reschedule(handle, 2*Millisecond)
	e.Run(Second)
	if count != 2 {
		t.Fatalf("rescheduled event fired %d times total, want 2", count)
	}
}

func TestEngineDoPastSchedulingClampsToNow(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(10*Microsecond, func() {
		e.Do(5*Microsecond, &countAction{&order, 1}) // in the past
	})
	e.Run(Second)
	if len(order) != 1 {
		t.Fatal("past-scheduled pooled event must still fire (clamped to now)")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{16 * Microsecond, "16µs"},
		{2500 * Microsecond, "2.5ms"},
		{3 * Second, "3s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestEngineSetCheckRunsAfterEveryEvent(t *testing.T) {
	// The audit hook must fire once per processed event — closure and
	// pooled (Do) paths alike — after the event's effects, with Now at the
	// event's time.
	e := NewEngine()
	var checks int
	var times []Time
	var fired int
	e.SetCheck(func() {
		checks++
		times = append(times, e.Now())
		if checks != fired {
			t.Fatalf("check %d ran with %d events fired", checks, fired)
		}
	})
	for i := 1; i <= 3; i++ {
		tm := Time(i) * Microsecond
		e.At(tm, func() { fired++ })
	}
	e.Do(4*Microsecond, &checkedAction{&fired})
	e.Run(Second)
	if checks != 4 {
		t.Fatalf("check ran %d times, want 4", checks)
	}
	for i, at := range times {
		if at != Time(i+1)*Microsecond {
			t.Fatalf("check %d ran at %v, want %v", i, at, Time(i+1)*Microsecond)
		}
	}
}

type checkedAction struct{ fired *int }

func (a *checkedAction) Run() { *a.fired++ }

func TestEngineSetCheckNilIsOff(t *testing.T) {
	e := NewEngine()
	n := 0
	e.SetCheck(func() { n++ })
	e.SetCheck(nil)
	e.At(Microsecond, func() {})
	e.Run(Second)
	if n != 0 {
		t.Fatalf("cleared check still ran %d times", n)
	}
}
