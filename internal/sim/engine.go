package sim

// Action is a pre-bound callback that can be scheduled without allocating:
// the receiver carries its own arguments, so converting a pointer to an
// Action builds no closure. Hot paths (the radio medium) embed Action
// implementations in pooled structs and schedule them with Engine.Do.
type Action interface{ Run() }

// Series is a run of logical events that share one queued entry: the
// fan-out of one transmission's reception phase is a few hundred events
// microseconds apart, and keeping them all queued is what makes the heap
// deep. The series keeps its events itself, in ascending (time, sequence)
// order, and the engine keeps only the key of the next one — in its series
// lane, not the heap (see Engine).
//
// Fire runs the logical event the entry is currently keyed to, then returns
// the key of the series' next logical event, or ok == false when that was
// its last. The sequence numbers come from Engine.Reserve, taken when the
// events would otherwise have been scheduled one by one, so every logical
// event fires exactly where an individually scheduled one would have.
type Series interface {
	Fire() (at Time, seq uint64, ok bool)
}

// Event is a scheduled callback. Events are ordered by time, with insertion
// sequence breaking ties so that two events scheduled for the same instant
// fire in the order they were scheduled. An Event doubles as a cancellable
// timer handle.
//
// Events scheduled with At/After are heap-allocated and never recycled:
// their handle escapes to the caller, who may Cancel or Reschedule them at
// any point — including long after they fired. Events scheduled with Do
// carry an Action instead of a closure and are recycled through the
// engine's free list the moment they fire; that is safe precisely because
// Do returns no handle, so no caller can touch a recycled Event. A
// DoSeries entry is pooled the same way, recycled when its series ends.
type Event struct {
	at       Time
	seq      uint64
	fn       func()
	act      Action // non-nil for pooled (Do-scheduled) events
	ser      Series // non-nil for a pooled series entry (DoSeries), which lives in the lane
	index    int    // heap index; -1 once popped or cancelled
	canceled bool
}

// eventHeap is a hand-rolled 4-ary min-heap of pending events ordered by
// (at, seq). The wider fan-out roughly halves the tree depth of the binary
// container/heap it replaces, and inlining the comparisons avoids its
// per-operation interface dispatch — the heap is the single hottest data
// structure in a run. Keys are unique (seq is a strict tiebreaker), so the
// pop order is exactly the (at, seq) total order no matter how the heap is
// arranged internally: swapping the implementation cannot change results.
type eventHeap []*Event

// lessEv orders events by time, then insertion sequence.
func lessEv(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts an event and records its index.
func (h *eventHeap) push(e *Event) {
	*h = append(*h, e)
	e.index = len(*h) - 1
	h.siftUp(e.index)
}

// popMin removes and returns the earliest event.
func (h *eventHeap) popMin() *Event {
	old := *h
	min := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[0].index = 0
	old[n] = nil
	*h = old[:n]
	if n > 1 {
		h.siftDown(0)
	}
	min.index = -1
	return min
}

// remove deletes the event at index i (Cancel support).
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	e := old[i]
	if i != n {
		old[i] = old[n]
		old[i].index = i
	}
	old[n] = nil
	*h = old[:n]
	if i < n {
		if !h.siftDown(i) {
			h.siftUp(i)
		}
	}
	e.index = -1
}

// fix restores heap order after the event at index i changed its key
// (Reschedule support).
func (h *eventHeap) fix(i int) {
	if !h.siftDown(i) {
		h.siftUp(i)
	}
}

// siftUp moves the event at index i toward the root until ordered.
func (h eventHeap) siftUp(i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !lessEv(e, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = e
	e.index = i
}

// siftDown moves the event at index i toward the leaves until ordered,
// reporting whether it moved.
func (h eventHeap) siftDown(i0 int) bool {
	n := len(h)
	i := i0
	e := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if lessEv(h[j], h[m]) {
				m = j
			}
		}
		if !lessEv(h[m], e) {
			break
		}
		h[i] = h[m]
		h[i].index = i
		i = m
	}
	h[i] = e
	e.index = i
	return i > i0
}

// Engine is a single-threaded discrete-event scheduler. The zero value is
// ready to use. Engines are not safe for concurrent use; run independent
// simulations on independent Engines (one per goroutine) instead.
//
// Pending entries live in one of two queues. The heap holds At/After/Do
// events and timers. The series lane holds the DoSeries entries, sorted by
// (at, seq): a reception series is a few logical events nanoseconds apart
// that would sit at the heap's root, sifted down on every re-key and
// removed from the root when it ends, where in the lane a re-key is a
// compare with its successor and a retirement a copy. Run fires the smaller
// of the two heads; keys are unique across both queues, so the fire order
// is the (at, seq) total order whichever queue an entry is in.
type Engine struct {
	heap    eventHeap
	lane    []*Event
	now     Time
	seq     uint64
	stopped bool
	// processed counts logical events that have fired, for tests and sanity
	// limits: a series entry counts once per Fire.
	processed uint64
	// extra is the number of logical events queued behind series entries
	// beyond the one each entry is keyed to, so Pending counts what an
	// engine without series would hold.
	extra int
	// free holds recycled Do-scheduled events. Only events whose handle
	// never escaped (Do returns nothing) are pushed here; see Event.
	free FreeList[Event]
	// check, when set, runs after every fired event (deep-audit hook).
	check func()
}

// SetCheck installs a hook invoked after every logical event fires, with the
// clock at that event's time. The deep-audit plane uses it to re-validate
// invariants per event; nil (the default) costs one branch per event.
func (e *Engine) SetCheck(fn func()) { e.check = fn }

// NewEngine returns an empty engine positioned at time zero.
func NewEngine() *Engine { return &Engine{} }

// Reset returns the engine to time zero with nothing scheduled, keeping the
// heap's and the lane's capacity and the pooled events: a run arena resets
// its engine between runs. Every pending entry leaves its queue — a pooled
// one (Do, DoSeries) goes back to the free list, a timer's reads as not
// armed, an At/After event is dropped — so nothing the last run scheduled is
// reachable from the next.
func (e *Engine) Reset() {
	for i, ev := range e.heap {
		e.heap[i] = nil
		ev.index = -1
		if ev.act != nil {
			ev.act = nil
			e.free.Put(ev)
		}
	}
	for i, ev := range e.lane {
		e.lane[i] = nil
		ev.ser = nil
		e.free.Put(ev)
	}
	*e = Engine{heap: e.heap[:0], lane: e.lane[:0], free: e.free}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of logical events fired so far: callbacks,
// actions, and every event of a series, however few heap entries held them.
func (e *Engine) Processed() uint64 { return e.processed }

// At schedules fn to run at absolute time t. Scheduling in the past is a
// programming error and fires immediately at the current time instead
// (never travels backwards). The returned Event can be cancelled.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		t = e.now
	}
	ev := &Event{at: t, seq: e.seq, fn: fn}
	e.seq++
	e.heap.push(ev)
	return ev
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) *Event {
	return e.At(e.now+d, fn)
}

// Do schedules act to run at absolute time t on a pooled event. It is the
// allocation-free fast path for fire-and-forget events: no handle is
// returned, so the event cannot be cancelled or rescheduled, and its Event
// struct is recycled into the engine's free list as soon as it fires.
// Ordering semantics (time, then insertion sequence) are identical to At.
func (e *Engine) Do(t Time, act Action) {
	if t < e.now {
		t = e.now
	}
	ev := e.pooled()
	ev.at = t
	ev.seq = e.seq
	ev.act = act
	e.seq++
	e.heap.push(ev)
}

// pooled pops a recycled event or allocates one. Every pooled event is put
// back with only at, seq and index set, so the caller sets act or ser.
func (e *Engine) pooled() *Event {
	if ev := e.free.Get(); ev != nil {
		return ev
	}
	return &Event{}
}

// Reserve takes n consecutive insertion sequence numbers, exactly those n
// successive Do calls would take now, and returns the first. The caller
// hands them out to the logical events of its series.
func (e *Engine) Reserve(n int) uint64 {
	base := e.seq
	e.seq += uint64(n)
	return base
}

// DoSeries schedules the n logical events of s behind one pooled lane
// entry. (t, seq) is the key of the first; each Fire returns the next,
// which must sort after it, and the n-th Fire must report the end. The
// entry is re-keyed in place after each logical event, so the lane holds
// one entry for the series however long it is, while Processed, Pending,
// the check hook and the fire order are those of n separate Do events with
// the same keys.
func (e *Engine) DoSeries(t Time, seq uint64, n int, s Series) {
	if t < e.now {
		panic("sim: series scheduled in the past")
	}
	ev := e.pooled()
	ev.at = t
	ev.seq = seq
	ev.ser = s
	e.extra += n - 1
	i := e.after(ev, 0)
	e.lane = append(e.lane, nil)
	copy(e.lane[i+1:], e.lane[i:])
	e.lane[i] = ev
}

// after returns the index, from lo on, of the first lane entry that sorts
// after ev, or the lane's length: the lane is sorted, so a binary search.
func (e *Engine) after(ev *Event, lo int) int {
	hi := len(e.lane)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if lessEv(e.lane[mid], ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Cancel removes a pending event. Cancelling a nil, already-fired or
// already-cancelled event is a no-op, so callers can cancel unconditionally.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.canceled {
		return
	}
	ev.canceled = true
	if ev.index >= 0 {
		e.heap.remove(ev.index)
	}
}

// Reschedule moves a pending event to a new absolute time, preserving its
// callback. If the event already fired or was cancelled, it is re-armed.
func (e *Engine) Reschedule(ev *Event, t Time) {
	if ev == nil {
		return
	}
	if t < e.now {
		t = e.now
	}
	ev.canceled = false
	ev.at = t
	ev.seq = e.seq
	e.seq++
	if ev.index >= 0 {
		e.heap.fix(ev.index)
	} else {
		e.heap.push(ev)
	}
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in order until the queue is empty, the next event is
// scheduled after `until`, or an event calls Stop. The clock is left at
// `until`, except after Stop: events before `until` may still be queued
// then, so it stays at the last one fired and a later Run resumes there.
func (e *Engine) Run(until Time) {
	e.stopped = false
	for !e.stopped {
		var next *Event
		if len(e.heap) > 0 {
			next = e.heap[0]
		}
		if len(e.lane) > 0 && (next == nil || lessEv(e.lane[0], next)) {
			next = e.lane[0]
		}
		if next == nil || next.at > until {
			break
		}
		e.now = next.at
		e.processed++
		switch {
		case next.ser != nil:
			// The lane's head fires one logical event and is re-keyed to
			// the next, or retired after the last; this is the hottest
			// path of a run, so it is written out here rather than called.
			// The entry stays at the head while its event runs: whatever
			// the event schedules is at or after now with a fresh sequence
			// number, so it sorts after the key being fired. Afterwards
			// the entry moves behind the lane entries it now sorts after —
			// none, in the common case of a fan-out whose receptions are
			// nanoseconds apart and every other transmission's a slot time
			// away, where it costs one compare with the entry behind it.
			e.extra-- // the event being fired is no longer pending
			at, seq, more := next.ser.Fire()
			if !more {
				e.retire(next)
				break
			}
			if at < next.at || (at == next.at && seq <= next.seq) {
				panic("sim: series keys out of order")
			}
			next.at, next.seq = at, seq
			// Read after Fire: a DoSeries inside it may have grown the lane.
			if lane := e.lane; len(lane) > 1 && lessEv(lane[1], next) {
				i := e.after(next, 2) - 1
				copy(lane[:i], lane[1:i+1])
				lane[i] = next
			}
		case next.act != nil:
			e.heap.popMin()
			// Recycle before running: the action may schedule more Do
			// events, which can then reuse this very struct.
			act := next.act
			next.act = nil
			e.free.Put(next)
			act.Run()
		default:
			e.heap.popMin()
			next.fn()
		}
		if e.check != nil {
			e.check()
		}
	}
	if e.now < until && !e.stopped {
		e.now = until
	}
}

// retire takes the series entry at the head of the lane, whose last event
// has fired, back to the free list.
func (e *Engine) retire(ev *Event) {
	e.extra++ // the event fired was the entry itself, not one behind it
	n := copy(e.lane, e.lane[1:])
	e.lane[n] = nil
	e.lane = e.lane[:n]
	ev.ser = nil
	e.free.Put(ev)
}

// Pending returns the number of logical events still queued: every heap and
// lane entry, plus what each series holds behind the event it is keyed to.
func (e *Engine) Pending() int { return len(e.heap) + len(e.lane) + e.extra }
