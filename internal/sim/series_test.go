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
	if len(e.heap) != 4 || len(e.lane) != 1 || e.lane[0].at != 5 || e.lane[0].seq != 2 {
		t.Fatalf("%d heap and %d lane entries, want 4 and 1: the callbacks in the heap, the series one lane entry keyed to s1 (5, 2)",
			len(e.heap), len(e.lane))
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
	if len(e.heap) != 1 || e.heap[0].at != 25 || len(e.lane) != 1 || e.lane[0].at != 30 {
		t.Fatalf("heap holds %d entries, lane %d: want the callback at 25 in the heap and the series, re-keyed to 30, in the lane",
			len(e.heap), len(e.lane))
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
	e       *Engine
	seed    uint64
	expand  bool     // reference: a series is n Do events
	mut     mutation // series side only
	nextID  int
	bursts  int
	handles []*Event
	log     []string
	checks  int
	// maxLane is the most series entries the lane has held at once.
	maxLane int
	// rekeyed is the series whose event fired last, for fifoTies.
	rekeyed *listSeries
}

// mutation is a deliberate engine bug the differential test must notice.
type mutation int

const (
	noMutation mutation = iota
	// freshSeq re-keys a series with a new sequence number instead of the
	// reserved one.
	freshSeq
	// fifoTies orders the lane by time alone: an entry inserted or re-keyed
	// goes after every entry at its time, whatever their sequence numbers.
	// The test emulates it by moving the entry there after the engine has
	// placed it.
	fifoTies
)

type diffAction struct {
	w  *diffWorld
	id int
}

func (a *diffAction) Run() { a.w.fired(a.id) }

func (w *diffWorld) id() int { w.nextID++; return w.nextID }

// intn is where a program's choices come from: a seeded RNG, or the
// fuzzer's bytes.
type intn interface{ IntN(n int) int }

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
func (w *diffWorld) act(rng intn, kinds int) {
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
		w.series(rng, 8)
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

// series schedules one series of 1 to 7 logical events within span of now.
func (w *diffWorld) series(rng intn, span int) {
	n := 1 + rng.IntN(7)
	times := make([]Time, n)
	ids := make([]int, n)
	for i := range times {
		times[i] = w.e.Now() + Time(rng.IntN(span))
		ids[i] = w.id()
	}
	if w.expand {
		for i := range times {
			w.e.Do(times[i], &diffAction{w, ids[i]})
		}
		return
	}
	var s *listSeries
	s = newListSeries(w.e, times, func(i int) {
		w.rekeyed = s
		w.fired(ids[i])
	})
	s.freshSeq = w.mut == freshSeq
	s.schedule()
	w.placed(s)
}

// burst schedules 16 to 24 series at once over the next 40 ticks: a city's
// depth of overlapping transmissions, each series a reception phase. Their
// shapes come from the world's seed, so a fuzzed program spends one byte on
// a burst.
func (w *diffWorld) burst(src intn) {
	w.bursts++
	rng := NewRNG(w.seed, 2<<32|uint64(w.bursts))
	for k := 16 + src.IntN(9); k > 0; k-- {
		w.series(rng, 40)
	}
}

// placed notes the lane's depth after s was inserted or re-keyed and, under
// fifoTies, moves s behind every other entry at its time.
func (w *diffWorld) placed(s *listSeries) {
	lane := w.e.lane
	w.maxLane = max(w.maxLane, len(lane))
	if w.mut != fifoTies {
		return
	}
	i := slices.IndexFunc(lane, func(ev *Event) bool { return ev.ser == s })
	if i < 0 {
		return // retired
	}
	ev := lane[i]
	for i+1 < len(lane) && lane[i+1].at <= ev.at {
		lane[i] = lane[i+1]
		i++
	}
	lane[i] = ev
}

// check is the world's check hook: it counts logical events and, after a
// series event, sees the series placed.
func (w *diffWorld) check() {
	w.checks++
	if s := w.rekeyed; s != nil {
		w.rekeyed = nil
		w.placed(s)
	}
}

// reset resets the engine and reports how it drained, or "": every queue
// empty, the clock and the counts at zero, and every pooled entry — Do
// events, series entries — back on the free list.
func (w *diffWorld) reset() string {
	pooled := len(w.e.lane)
	for _, ev := range w.e.heap {
		if ev.act != nil {
			pooled++
		}
	}
	free := w.e.free.Len()
	w.e.Reset()
	w.e.SetCheck(w.check)
	if len(w.e.heap) != 0 || len(w.e.lane) != 0 || w.e.Pending() != 0 || w.e.Now() != 0 || w.e.Processed() != 0 {
		return fmt.Sprintf("after Reset: %d heap and %d lane entries, Pending %d, Now %d, Processed %d",
			len(w.e.heap), len(w.e.lane), w.e.Pending(), w.e.Now(), w.e.Processed())
	}
	if got := w.e.free.Len() - free; got != pooled {
		return fmt.Sprintf("Reset pooled %d entries, want the %d pending", got, pooled)
	}
	return ""
}

// A step of a program is what both worlds do between runs.
const (
	opRun   = iota // run for up to 9 ticks
	opAct          // one operation of any kind but Stop
	opBurst        // 16 to 24 series at once
	opReset        // Engine.Reset
)

// program is the outside of one differential program: step k's kind, and
// the source of its arguments, or ok == false after the last step. Each
// world gets a program of its own, so both replay the same choices.
type program interface {
	step(k int) (op int, src intn, ok bool)
}

// seeded is a 60-step program drawn from a seed. A wide one bursts at steps
// 5, 25 and 45; a resetting one resets at step 30.
type seeded struct {
	seed         uint64
	wide, resets bool
}

func (p seeded) step(k int) (int, intn, bool) {
	if k == 60 {
		return 0, nil, false
	}
	rng := NewRNG(p.seed, 1<<32|uint64(k))
	switch {
	case p.wide && k%20 == 5:
		return opBurst, rng, true
	case p.resets && k == 30:
		return opReset, rng, true
	case rng.IntN(3) == 0:
		return opRun, rng, true
	}
	return opAct, rng, true
}

// seededProgram is seed's program: every second seed wide, every third
// resetting.
func seededProgram(seed uint64) func() program {
	return func() program { return seeded{seed: seed, wide: seed%2 == 0, resets: seed%3 == 0} }
}

// fuzzed is a program read from bytes, one step kind per byte followed by
// its arguments; bytes past the end read as zero, and the program ends with
// its bytes or at step 60.
type fuzzed struct {
	data []byte
	pos  int
}

func (p *fuzzed) IntN(n int) int {
	if p.pos >= len(p.data) {
		return 0
	}
	p.pos++
	return int(p.data[p.pos-1]) % n
}

func (p *fuzzed) step(k int) (int, intn, bool) {
	if k == 60 || p.pos >= len(p.data) {
		return 0, nil, false
	}
	// Of eight values: three run, three act, one bursts and one resets.
	return [...]int{opRun, opRun, opRun, opAct, opAct, opAct, opBurst, opReset}[p.IntN(8)], p, true
}

// diffProgram runs one program on a series engine and on the reference and
// returns the first divergence, or "", and the series side's deepest lane.
func diffProgram(seed uint64, newProgram func() program, mut mutation) (string, int) {
	worlds := [2]*diffWorld{
		{e: NewEngine(), seed: seed, mut: mut},
		{e: NewEngine(), seed: seed, expand: true},
	}
	programs := [2]program{newProgram(), newProgram()}
	for _, w := range worlds {
		w.e.SetCheck(w.check)
	}
	for step := 0; ; step++ {
		for i, w := range worlds {
			op, src, ok := programs[i].step(step)
			if !ok {
				return "", worlds[0].maxLane
			}
			switch op {
			case opRun:
				w.e.Run(w.e.Now() + Time(src.IntN(10)))
			case opAct:
				w.act(src, 11) // every kind but Stop, which only an event may call
			case opBurst:
				w.burst(src)
			case opReset:
				if d := w.reset(); d != "" {
					return fmt.Sprintf("step %d, world %d: %s", step, i, d), worlds[0].maxLane
				}
			}
		}
		a, b := worlds[0], worlds[1]
		if !slices.Equal(a.log, b.log) {
			n := 0
			for n < len(a.log) && n < len(b.log) && a.log[n] == b.log[n] {
				n++
			}
			return fmt.Sprintf("step %d: fire %d differs:\n series    %v\n reference %v", step, n, a.log[n:], b.log[n:]), a.maxLane
		}
		if a.e.Now() != b.e.Now() || a.e.Processed() != b.e.Processed() || a.e.Pending() != b.e.Pending() {
			return fmt.Sprintf("step %d: Now %d/%d, Processed %d/%d, Pending %d/%d", step,
				a.e.Now(), b.e.Now(), a.e.Processed(), b.e.Processed(), a.e.Pending(), b.e.Pending()), a.maxLane
		}
		if a.checks != len(a.log) || b.checks != len(b.log) {
			return fmt.Sprintf("step %d: check hook ran %d/%d times for %d/%d logical events", step,
				a.checks, b.checks, len(a.log), len(b.log)), a.maxLane
		}
	}
}

func TestSeriesDifferentialAgainstExpandedEvents(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		d, lane := diffProgram(seed, seededProgram(seed), noMutation)
		if d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
		// A wide program holds a city's depth of series at once.
		if seed%2 == 0 && lane < 16 {
			t.Fatalf("seed %d: wide program's lane held at most %d series, want at least 16", seed, lane)
		}
	}
	// The programs are worth something: they fire events, and each mutation
	// is caught on many of them.
	for _, m := range []struct {
		mut  mutation
		name string
		want int
	}{
		{freshSeq, "fresh-sequence-number", 300},
		{fifoTies, "time-only lane", 360},
	} {
		caught := 0
		for seed := uint64(1); seed <= 400; seed++ {
			if d, _ := diffProgram(seed, seededProgram(seed), m.mut); d != "" {
				caught++
			}
		}
		t.Logf("the %s mutation diverged on %d of 400 programs", m.name, caught)
		if caught < m.want {
			t.Fatalf("the %s mutation diverged on %d of 400 programs, want at least %d", m.name, caught, m.want)
		}
	}
}

// FuzzEngineSeries: any program the bytes spell — runs, operations of every
// kind, bursts of series, resets — fires the same logical events in the same
// order, with the same clock and counts, on the series engine as on the
// reference that expands each series into Do events.
func FuzzEngineSeries(f *testing.F) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := NewRNG(seed, 3<<32)
		data := make([]byte, 8, 128)
		for i := range data {
			data[i] = byte(seed >> (8 * i))
		}
		for range 120 {
			data = append(data, byte(rng.IntN(256)))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The first eight bytes seed what events do when they fire.
		var seed uint64
		for i := 0; i < 8 && i < len(data); i++ {
			seed |= uint64(data[i]) << (8 * i)
		}
		rest := data[min(8, len(data)):]
		if d, _ := diffProgram(seed, func() program { return &fuzzed{data: rest} }, noMutation); d != "" {
			t.Fatal(d)
		}
	})
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

// benchSeries is fanout logical events step nanoseconds apart, re-armed by
// the benchmark loop.
type benchSeries struct {
	base        uint64
	start, step Time
	pos, fanout int
	fired       *int
}

func (s *benchSeries) Fire() (Time, uint64, bool) {
	*s.fired++
	s.pos++
	if s.pos == s.fanout {
		return 0, 0, false
	}
	return s.start + Time(s.pos)*s.step, s.base + uint64(s.pos), true
}

// BenchmarkSeries is concurrent series of fanout logical events each
// scheduled and drained on an engine that holds 64 other events, all later:
// the engine's share of a transmission's reception phase by receiver count.
// With concurrent=1 every re-key leaves the entry at the head of the lane;
// with concurrent=32 — a city's depth of overlapping transmissions — the
// series' events interleave round robin, so each re-key moves the entry
// behind the 31 others and each op inserts and retires 32 entries. ns/event
// divides the op by its logical events, for comparison with BenchmarkDoRun's
// push and pop.
func BenchmarkSeries(b *testing.B) {
	for _, fanout := range []int{3, 30, 230} {
		for _, concurrent := range []int{1, 32} {
			b.Run(fmt.Sprintf("fanout=%d/concurrent=%d", fanout, concurrent), func(b *testing.B) {
				e := NewEngine()
				for i := 0; i < 64; i++ {
					e.Do(1<<62+Time(i), &hold{})
				}
				fired := 0
				series := make([]benchSeries, concurrent)
				for j := range series {
					series[j] = benchSeries{step: Time(concurrent), fanout: fanout, fired: &fired}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					now := e.Now()
					for j := range series {
						s := &series[j]
						s.start, s.pos = now+1+Time(j), 0
						s.base = e.Reserve(fanout)
						e.DoSeries(s.start, s.base, fanout, s)
					}
					e.Run(now + Time(concurrent*fanout))
				}
				b.StopTimer()
				if fired != b.N*fanout*concurrent {
					b.Fatalf("%d logical events fired, want %d", fired, b.N*fanout*concurrent)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fired), "ns/event")
			})
		}
	}
}
