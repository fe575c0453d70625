package sim

import (
	"fmt"
	"slices"
	"testing"
)

// listSeries is a Series over explicit keys: logical event i fires at
// times[i] with sequence number base+i, and the series walks them in
// (time, i) order — what radio's reception cursors do with propagation
// delays. freshSeq is the mutation the differential test must catch:
// re-keying with a new sequence number instead of the reserved one.
type listSeries struct {
	e        *Engine
	base     uint64
	times    []Time
	order    []int
	pos      int
	fire     func(i int)
	freshSeq bool
}

func newListSeries(e *Engine, times []Time, fire func(i int)) *listSeries {
	s := &listSeries{e: e, times: times, fire: fire, order: make([]int, len(times))}
	for i := range s.order {
		s.order[i] = i
	}
	slices.SortStableFunc(s.order, func(a, b int) int { return int(times[a] - times[b]) })
	return s
}

// schedule reserves the series' sequence numbers and queues it.
func (s *listSeries) schedule() {
	s.base = s.e.Reserve(len(s.times))
	first := s.order[0]
	s.e.DoSeries(s.times[first], s.base+uint64(first), len(s.times), s)
}

func (s *listSeries) Fire() (Time, uint64, bool) {
	s.fire(s.order[s.pos])
	s.pos++
	if s.pos == len(s.order) {
		return 0, 0, false
	}
	i := s.order[s.pos]
	if s.freshSeq {
		return s.times[i], s.e.Reserve(1), true
	}
	return s.times[i], s.base + uint64(i), true
}

func TestSeriesFiresInKeyOrderAmongOtherEvents(t *testing.T) {
	e := NewEngine()
	var got []string
	note := func(s string) func() { return func() { got = append(got, fmt.Sprintf("%s@%d", s, e.Now())) } }
	e.At(5, note("a"))
	// Logical events 0..3 at 7, 5, 5, 9: sequence numbers 1..4.
	newListSeries(e, []Time{7, 5, 5, 9}, func(i int) { note(fmt.Sprintf("s%d", i))() }).schedule()
	e.At(5, note("b"))
	e.At(7, note("c"))
	e.At(8, note("d"))
	if e.Pending() != 8 {
		t.Fatalf("Pending = %d with 4 callbacks and a 4-event series queued, want 8", e.Pending())
	}
	if len(e.heap) != 5 {
		t.Fatalf("%d heap entries, want 5: the series is one", len(e.heap))
	}
	e.Run(100)
	want := "[a@5 s1@5 s2@5 b@5 s0@7 c@7 d@8 s3@9]"
	if fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
	if e.Processed() != 8 || e.Pending() != 0 {
		t.Fatalf("Processed %d, Pending %d after the drain, want 8 and 0", e.Processed(), e.Pending())
	}
}

func TestSeriesUntilCutsItInHalf(t *testing.T) {
	e := NewEngine()
	fired := 0
	newListSeries(e, []Time{1, 2, 3, 4, 5}, func(int) { fired++ }).schedule()
	e.Run(3)
	if fired != 3 || e.Pending() != 2 || e.Processed() != 3 || e.Now() != 3 {
		t.Fatalf("after Run(3): fired %d, Pending %d, Processed %d, Now %d", fired, e.Pending(), e.Processed(), e.Now())
	}
	e.Run(10)
	if fired != 5 || e.Pending() != 0 {
		t.Fatalf("after the drain: fired %d, Pending %d", fired, e.Pending())
	}
}

func TestSeriesKeysMustAscend(t *testing.T) {
	e := NewEngine()
	s := newListSeries(e, []Time{1, 2}, func(int) {})
	s.order = []int{1, 0} // walks backwards in time
	s.base = e.Reserve(2)
	e.DoSeries(2, s.base+1, 2, s)
	defer func() {
		if recover() == nil {
			t.Fatal("a series stepping back in time did not panic")
		}
	}()
	e.Run(10)
}

func TestSeriesZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	s := newListSeries(e, []Time{0, 0, 0, 0}, func(int) {})
	round := func() {
		now := e.Now()
		for i := range s.times {
			s.times[i] = now + Time(i+1)
		}
		s.pos = 0
		s.schedule()
		e.Run(now + 10)
	}
	round()
	if a := testing.AllocsPerRun(100, round); a != 0 {
		t.Fatalf("%v allocations per series, want 0: the heap entry is pooled", a)
	}
}

// Stop used to leave the clock at `until` with earlier events still queued,
// so the next Run fired them with Now() running backwards.
func TestEngineStopLeavesClockAtLastEvent(t *testing.T) {
	e := NewEngine()
	var at2 Time
	e.At(1, e.Stop)
	e.At(2, func() { at2 = e.Now() })
	e.Run(Second)
	if e.Now() != 1 || e.Pending() != 1 {
		t.Fatalf("after Stop: Now %d, Pending %d; want 1 and 1", e.Now(), e.Pending())
	}
	seen := e.Now()
	e.SetCheck(func() {
		if e.Now() < seen {
			t.Fatalf("clock ran backwards: %d after %d", e.Now(), seen)
		}
		seen = e.Now()
	})
	e.Run(Second)
	if at2 != 2 || e.Now() != Second || e.Pending() != 0 {
		t.Fatalf("second Run: event fired at %d, Now %d, Pending %d; want 2, 1s, 0", at2, e.Now(), e.Pending())
	}
}

func TestEngineStopInsideSeries(t *testing.T) {
	e := NewEngine()
	var fired []int
	newListSeries(e, []Time{10, 20, 30, 40, 50}, func(i int) {
		fired = append(fired, i)
		if i == 1 {
			e.Stop()
		}
	}).schedule()
	e.At(25, func() { fired = append(fired, -1) })
	e.Run(Second)
	if fmt.Sprint(fired) != "[0 1]" || e.Now() != 20 || e.Pending() != 4 || e.Processed() != 2 {
		t.Fatalf("after Stop in the series: fired %v, Now %d, Pending %d, Processed %d; want [0 1], 20, 4, 2",
			fired, e.Now(), e.Pending(), e.Processed())
	}
	if len(e.heap) != 2 || e.heap[0].at != 25 {
		t.Fatalf("heap holds %d entries, root at %d: want the callback at 25 ahead of the series re-keyed to 30",
			len(e.heap), e.heap[0].at)
	}
	e.Run(Second)
	if fmt.Sprint(fired) != "[0 1 -1 2 3 4]" || e.Pending() != 0 {
		t.Fatalf("resumed: fired %v, Pending %d", fired, e.Pending())
	}
}

// diffWorld is one side of the differential test: an engine, and a program
// interpreter whose every decision is a function of (seed, fire count) — so
// two worlds make the same decisions exactly as long as their events fire
// in the same order, which is what the test checks. The series side queues
// each series as one DoSeries entry; the reference side expands it, at the
// moment the sequence numbers are reserved, into one Do event per logical
// event.
type diffWorld struct {
	e        *Engine
	seed     uint64
	expand   bool // reference: a series is n Do events
	freshSeq bool // mutation, series side only
	nextID   int
	handles  []*Event
	log      []string
	checks   int
}

type diffAction struct {
	w  *diffWorld
	id int
}

func (a *diffAction) Run() { a.w.fired(a.id) }

func (w *diffWorld) id() int { w.nextID++; return w.nextID }

// fired logs one logical event and lets it act: schedule more work of every
// kind, cancel or move a timer, stop the run.
func (w *diffWorld) fired(id int) {
	w.log = append(w.log, fmt.Sprintf("%d@%d p%d q%d", id, w.e.Now(), w.e.Processed(), w.e.Pending()))
	if len(w.log) >= diffBudget {
		return // the program has grown enough: let it drain
	}
	// Keyed by the fire, not the event: a re-armed timer decides afresh.
	rng := NewRNG(w.seed, uint64(len(w.log)))
	for n := rng.IntN(3); n > 0; n-- {
		w.act(rng, 12)
	}
}

// diffBudget bounds a program: events act only until this many have fired.
const diffBudget = 400

// act performs one random operation among the first `kinds` kinds: 12 for
// an event, 11 — all but Stop — from outside a run.
func (w *diffWorld) act(rng *RNG, kinds int) {
	// Small offsets: ties between a series' events and everything else are
	// the point.
	at := w.e.Now() + Time(rng.IntN(6))
	switch k := rng.IntN(kinds); k {
	case 0, 1:
		id := w.id()
		w.handles = append(w.handles, w.e.At(at, func() { w.fired(id) }))
	case 2:
		id := w.id()
		w.handles = append(w.handles, w.e.After(Time(rng.IntN(6)), func() { w.fired(id) }))
	case 3, 4:
		w.e.Do(at, &diffAction{w, w.id()})
	case 5, 6, 7:
		n := 1 + rng.IntN(7)
		times := make([]Time, n)
		ids := make([]int, n)
		for i := range times {
			times[i] = w.e.Now() + Time(rng.IntN(8))
			ids[i] = w.id()
		}
		if w.expand {
			for i := range times {
				w.e.Do(times[i], &diffAction{w, ids[i]})
			}
			return
		}
		s := newListSeries(w.e, times, func(i int) { w.fired(ids[i]) })
		s.freshSeq = w.freshSeq
		s.schedule()
	case 8:
		if len(w.handles) > 0 {
			w.e.Cancel(w.handles[rng.IntN(len(w.handles))])
		}
	case 9, 10:
		if len(w.handles) > 0 {
			w.e.Reschedule(w.handles[rng.IntN(len(w.handles))], at)
		}
	case 11:
		w.e.Stop()
	}
}

// diffProgram runs one random program on a series engine and on the
// reference and returns the first divergence, or "".
func diffProgram(seed uint64, freshSeq bool) string {
	worlds := [2]*diffWorld{
		{e: NewEngine(), seed: seed, freshSeq: freshSeq},
		{e: NewEngine(), seed: seed, expand: true},
	}
	for _, w := range worlds {
		w.e.SetCheck(func() { w.checks++ })
	}
	for step := 0; step < 60; step++ {
		for _, w := range worlds {
			rng := NewRNG(seed, 1<<32|uint64(step))
			if rng.IntN(3) == 0 {
				w.e.Run(w.e.Now() + Time(rng.IntN(10)))
			} else {
				w.act(rng, 11) // every kind but Stop, which only an event may call
			}
		}
		a, b := worlds[0], worlds[1]
		if !slices.Equal(a.log, b.log) {
			n := 0
			for n < len(a.log) && n < len(b.log) && a.log[n] == b.log[n] {
				n++
			}
			return fmt.Sprintf("step %d: fire %d differs:\n series    %v\n reference %v", step, n, a.log[n:], b.log[n:])
		}
		if a.e.Now() != b.e.Now() || a.e.Processed() != b.e.Processed() || a.e.Pending() != b.e.Pending() {
			return fmt.Sprintf("step %d: Now %d/%d, Processed %d/%d, Pending %d/%d", step,
				a.e.Now(), b.e.Now(), a.e.Processed(), b.e.Processed(), a.e.Pending(), b.e.Pending())
		}
		if a.checks != len(a.log) || b.checks != len(b.log) {
			return fmt.Sprintf("step %d: check hook ran %d/%d times for %d/%d logical events", step,
				a.checks, b.checks, len(a.log), len(b.log))
		}
	}
	return ""
}

func TestSeriesDifferentialAgainstExpandedEvents(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		if d := diffProgram(seed, false); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
	}
	// The programs are worth something: they fire events, and the
	// mutation — a fresh sequence number at each re-key instead of the
	// reserved one — is caught on many of them.
	caught := 0
	for seed := uint64(1); seed <= 400; seed++ {
		if diffProgram(seed, true) != "" {
			caught++
		}
	}
	if caught < 300 {
		t.Fatalf("the fresh-sequence-number mutation diverged on %d of 400 programs, want at least 300", caught)
	}
}

// hold is the event of the classic hold model: firing schedules itself
// again a random interval ahead, so the heap stays at its initial depth
// (what bench's sim.do_run_ns_* probes time).
type hold struct {
	e    *Engine
	rng  *RNG
	left *int
}

func (h *hold) Run() {
	*h.left--
	if *h.left == 0 {
		h.e.Stop()
	}
	h.e.Do(h.e.Now()+Time(h.rng.IntN(1000)+1), h)
}

// holdEngine returns an engine holding depth hold events, and their
// countdown.
func holdEngine(depth int) (*Engine, *int) {
	e := NewEngine()
	rng := NewRNG(1, 1)
	left := new(int)
	for i := 0; i < depth; i++ {
		e.Do(Time(rng.IntN(1000)+1), &hold{e: e, rng: rng, left: left})
	}
	return e, left
}

// BenchmarkDoRun is one pooled event scheduled and fired at a steady heap
// depth.
func BenchmarkDoRun(b *testing.B) {
	for _, depth := range []int{64, 4096} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e, left := holdEngine(depth)
			b.ReportAllocs()
			b.ResetTimer()
			*left = b.N
			e.Run(1 << 62)
		})
	}
}

// benchSeries is fanout logical events a nanosecond apart, re-armed by the
// benchmark loop.
type benchSeries struct {
	base        uint64
	start       Time
	pos, fanout int
	fired       *int
}

func (s *benchSeries) Fire() (Time, uint64, bool) {
	*s.fired++
	s.pos++
	if s.pos == s.fanout {
		return 0, 0, false
	}
	return s.start + Time(s.pos), s.base + uint64(s.pos), true
}

// BenchmarkSeries is one series of fanout logical events scheduled and
// drained on an engine that holds 64 other events, all later: the engine's
// share of a transmission's reception phase by receiver count. ns/event
// divides it by the fan-out, for comparison with BenchmarkDoRun — a re-key
// that leaves the entry at the root against a push and a pop.
func BenchmarkSeries(b *testing.B) {
	for _, fanout := range []int{3, 30, 230} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			e := NewEngine()
			for i := 0; i < 64; i++ {
				e.Do(1<<62+Time(i), &hold{})
			}
			fired := 0
			s := &benchSeries{fanout: fanout, fired: &fired}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.start, s.pos = e.Now()+1, 0
				s.base = e.Reserve(fanout)
				e.DoSeries(s.start, s.base, fanout, s)
				e.Run(s.start + Time(fanout))
			}
			b.StopTimer()
			if fired != b.N*fanout {
				b.Fatalf("%d logical events fired, want %d", fired, b.N*fanout)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fired), "ns/event")
		})
	}
}
