package sim

import (
	"fmt"
	"slices"
	"testing"
)

// timerWorld is one side of the Timer differential test, in the mould of
// diffWorld: every decision is a function of (seed, fire count), so the two
// sides decide alike exactly as long as their events fire in the same order.
// The timer side drives four Timers; the reference drives four *Event handles
// the way the tree did before Timer existed — At or After for the first
// arming, Reschedule afterwards, Cancel to stop.
type timerWorld struct {
	e         *Engine
	seed      uint64
	reference bool
	staleSeq  bool // mutation, timer side only: Arm keeps the old sequence number
	timers    [4]Timer
	rearmed   [4]bool // timer i has been armed before (the mutation needs an old number)
	handles   [4]*Event
	nextID    int
	log       []string
}

func newTimerWorld(seed uint64, reference, staleSeq bool) *timerWorld {
	w := &timerWorld{e: NewEngine(), seed: seed, reference: reference, staleSeq: staleSeq}
	for i := range w.timers {
		w.timers[i].Bind(w.e, func() { w.fired(-1 - i) })
	}
	return w
}

func (w *timerWorld) fired(id int) {
	w.log = append(w.log, fmt.Sprintf("%d@%d p%d q%d", id, w.e.Now(), w.e.Processed(), w.e.Pending()))
	if len(w.log) >= diffBudget {
		return
	}
	rng := NewRNG(w.seed, uint64(len(w.log)))
	for n := rng.IntN(3); n > 0; n-- {
		w.act(rng)
	}
}

// arm moves timer i to absolute time at, through ArmAt or (relative) Arm.
func (w *timerWorld) arm(i int, at Time, relative bool) {
	if w.reference {
		fn := func() { w.fired(-1 - i) }
		switch h := w.handles[i]; {
		case h != nil:
			w.e.Reschedule(h, at)
		case relative:
			w.handles[i] = w.e.After(at-w.e.Now(), fn)
		default:
			w.handles[i] = w.e.At(at, fn)
		}
		return
	}
	t := &w.timers[i]
	old := t.ev.seq
	if relative {
		t.Arm(at - w.e.Now())
	} else {
		t.ArmAt(at)
	}
	if w.staleSeq && w.rearmed[i] {
		t.ev.seq = old
		w.e.heap.fix(t.ev.index)
	}
	w.rearmed[i] = true
}

func (w *timerWorld) act(rng *RNG) {
	// Small offsets: ties between timers and the other traffic are the point.
	at := w.e.Now() + Time(rng.IntN(6))
	i := rng.IntN(len(w.timers))
	switch rng.IntN(10) {
	case 0, 1, 2:
		w.arm(i, at, true)
	case 3, 4:
		w.arm(i, at-Time(rng.IntN(3)), false) // sometimes in the past: clamped to now
	case 5:
		if w.reference {
			w.e.Cancel(w.handles[i])
		} else {
			w.timers[i].Stop()
		}
	case 6, 7:
		w.nextID++
		id := w.nextID
		w.e.Do(at, &timerAction{w, id})
	case 8, 9:
		times := make([]Time, 1+rng.IntN(5))
		ids := make([]int, len(times))
		for k := range times {
			times[k] = w.e.Now() + Time(rng.IntN(8))
			w.nextID++
			ids[k] = w.nextID
		}
		newListSeries(w.e, times, func(k int) { w.fired(ids[k]) }).schedule()
	}
}

type timerAction struct {
	w  *timerWorld
	id int
}

func (a *timerAction) Run() { a.w.fired(a.id) }

// timerProgram runs one random program on both sides and returns the first
// divergence, or "".
func timerProgram(seed uint64, staleSeq bool) string {
	a, b := newTimerWorld(seed, false, staleSeq), newTimerWorld(seed, true, false)
	for step := 0; step < 80; step++ {
		for _, w := range []*timerWorld{a, b} {
			rng := NewRNG(seed, 1<<32|uint64(step))
			if rng.IntN(3) == 0 {
				w.e.Run(w.e.Now() + Time(rng.IntN(10)))
			} else {
				w.act(rng)
			}
		}
		if !slices.Equal(a.log, b.log) {
			n := 0
			for n < len(a.log) && n < len(b.log) && a.log[n] == b.log[n] {
				n++
			}
			return fmt.Sprintf("step %d: fire %d differs:\n timers    %v\n reference %v", step, n, a.log[n:], b.log[n:])
		}
		if a.e.Now() != b.e.Now() || a.e.Processed() != b.e.Processed() || a.e.Pending() != b.e.Pending() {
			return fmt.Sprintf("step %d: Now %d/%d, Processed %d/%d, Pending %d/%d", step,
				a.e.Now(), b.e.Now(), a.e.Processed(), b.e.Processed(), a.e.Pending(), b.e.Pending())
		}
		for i := range a.timers {
			if a.timers[i].Armed() != b.handles[i].Pending() {
				return fmt.Sprintf("step %d: timer %d Armed %v, reference event Pending %v", step, i,
					a.timers[i].Armed(), b.handles[i].Pending())
			}
		}
	}
	return ""
}

func TestTimerDifferentialAgainstEvents(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		if d := timerProgram(seed, false); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
	}
	// The mutation — an Arm that keeps the timer's previous sequence number,
	// so a re-armed timer jumps ahead of events scheduled before it for the
	// same instant — must be caught on many programs.
	caught := 0
	for seed := uint64(1); seed <= 400; seed++ {
		if timerProgram(seed, true) != "" {
			caught++
		}
	}
	if caught < 300 {
		t.Fatalf("the stale-sequence-number mutation diverged on %d of 400 programs, want at least 300", caught)
	}
}

func TestTimerStopAndArmedInsideCallback(t *testing.T) {
	e := NewEngine()
	var tm Timer
	fires := 0
	tm.Bind(e, func() {
		fires++
		if tm.Armed() {
			t.Fatal("timer reads armed inside its own callback")
		}
		if fires == 1 {
			tm.Arm(5) // re-arming from the callback is the periodic idiom
		}
	})
	tm.Stop() // stopping a never-armed timer does nothing
	tm.Arm(3)
	tm.Arm(4) // moves it: one timer, one heap entry
	if !tm.Armed() || e.Pending() != 1 {
		t.Fatalf("armed twice: Armed %v, Pending %d; want true and 1", tm.Armed(), e.Pending())
	}
	e.Run(4)
	if fires != 1 || !tm.Armed() {
		t.Fatalf("after the first fire: fires %d, Armed %v", fires, tm.Armed())
	}
	tm.Stop()
	e.Run(100)
	if fires != 1 || tm.Armed() || e.Pending() != 0 {
		t.Fatalf("after Stop: fires %d, Armed %v, Pending %d", fires, tm.Armed(), e.Pending())
	}
}

func TestTimerZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	var tm Timer
	tm.Bind(e, func() {})
	round := func() {
		tm.Arm(3)
		tm.ArmAt(e.Now() + 2)
		tm.Stop()
		tm.Arm(1)
		e.Run(e.Now() + 5)
	}
	round() // grows the heap's backing array
	if a := testing.AllocsPerRun(100, round); a != 0 {
		t.Fatalf("%v allocations per arm/stop/fire round, want 0: the timer owns its heap entry", a)
	}
}

func TestFreeListIsLIFOAndNilWhenEmpty(t *testing.T) {
	var l FreeList[Event]
	if l.Get() != nil || l.Len() != 0 {
		t.Fatal("an empty free list must hand out nil")
	}
	a, b, c := &Event{}, &Event{}, &Event{}
	l.Put(a)
	l.Put(b)
	l.Put(c)
	if l.Len() != 3 {
		t.Fatalf("Len %d after three Puts", l.Len())
	}
	if l.Get() != c || l.Get() != b || l.Get() != a || l.Get() != nil {
		t.Fatal("Get must pop in reverse Put order, then nil")
	}
	l.Put(a)
	if n := testing.AllocsPerRun(100, func() { l.Put(l.Get()) }); n != 0 {
		t.Fatalf("%v allocations per Get/Put at steady state, want 0", n)
	}
	// The popped slot is cleared: the list must not keep a handed-out struct
	// reachable.
	if got := l.Get(); got != a || l.items[:1][0] != nil {
		t.Fatal("Get left the popped pointer in the backing array")
	}
}
