package sim

// Timer is a callback bound once to an engine and armed any number of times:
// the relay wait, the DCF defer and backoff, a reply or retransmission
// timeout. It owns its one heap entry, so arming allocates nothing, and every
// Arm takes the fresh insertion sequence a newly scheduled event would get —
// a timer armed now fires after everything already scheduled for the same
// instant, exactly as an After call made now would.
//
// Bind must be called before any other method, and a bound Timer must not be
// copied: the engine's heap points into it.
type Timer struct {
	eng *Engine
	ev  Event
}

// Bind ties the timer to its engine and callback and leaves it stopped.
func (t *Timer) Bind(eng *Engine, fn func()) {
	t.eng = eng
	t.ev = Event{fn: fn, index: -1}
}

// Bound reports whether Bind has been called. A struct that is initialised
// again in place on the same engine keeps the timers it bound the first
// time — their callbacks point at its address, which has not changed — and
// Engine.Reset has left each of them stopped.
func (t *Timer) Bound() bool { return t.eng != nil }

// Arm schedules the callback d from now, moving the timer if it is armed.
func (t *Timer) Arm(d Time) { t.eng.Reschedule(&t.ev, t.eng.now+d) }

// ArmAt schedules the callback at absolute time at (never before now),
// moving the timer if it is armed.
func (t *Timer) ArmAt(at Time) { t.eng.Reschedule(&t.ev, at) }

// Stop withdraws the timer; stopping one that is not armed does nothing.
func (t *Timer) Stop() {
	if t.ev.index >= 0 {
		t.eng.heap.remove(t.ev.index)
	}
}

// Armed reports whether the timer is scheduled: false once it has fired or
// been stopped, and already false inside its own callback.
func (t *Timer) Armed() bool { return t.ev.index >= 0 }
