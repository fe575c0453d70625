package audit

import (
	"strings"
	"testing"

	"ripple/internal/sim"
	"ripple/internal/stats"
)

// mustViolate runs fn and requires it to panic with a report naming the
// given invariant.
func mustViolate(t *testing.T, invariant string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no violation reported for %q", invariant)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "audit: invariant violated") ||
			!strings.Contains(msg, invariant) {
			t.Fatalf("violation report %v does not name %q", r, invariant)
		}
	}()
	fn()
}

// TestNilAuditorInert pins the wiring contract: every method — and the
// taps a nil auditor hands out — must be a safe no-op, so audit-off code
// paths need no conditionals.
func TestNilAuditorInert(t *testing.T) {
	var a *Auditor
	tap := a.RegisterQueue(1, 10, func() int { return 99 })
	if tap != nil {
		t.Fatalf("nil auditor returned a live tap %+v", tap)
	}
	tap.Enq()
	tap.Deq()
	a.StationDown(1)
	a.StationUp(1)
	a.Event(5)
	a.Event(3) // would violate monotonicity on a live auditor
	a.AtDrain()
}

// TestEventTimeMonotonicity: equal times are fine (many events share an
// instant), going backwards is not.
func TestEventTimeMonotonicity(t *testing.T) {
	a := New()
	a.Event(5)
	a.Event(5)
	a.Event(7)
	mustViolate(t, "event-time monotonicity", func() { a.Event(3) })
}

// TestQueueCustodyBalance: a queue mutation that bypasses the taps is
// caught at the next event.
func TestQueueCustodyBalance(t *testing.T) {
	a := New()
	depth := 0
	tap := a.RegisterQueue(7, 4, func() int { return depth })
	tap.Enq()
	depth++
	a.Event(1)
	tap.Deq()
	depth--
	a.Event(2)
	depth++ // untracked mutation
	mustViolate(t, "queue custody balance", func() { a.Event(3) })
}

// TestQueueBoundRespect: the limit plus the in-service slack is the hard
// ceiling; one past it is a violation.
func TestQueueBoundRespect(t *testing.T) {
	a := New()
	depth := 0
	tap := a.RegisterQueue(2, 2, func() int { return depth })
	for i := 0; i < 2+QueueBoundSlack; i++ {
		tap.Enq()
		depth++
	}
	a.Event(1) // exactly at limit+slack: allowed
	tap.Enq()
	depth++
	mustViolate(t, "queue bound respect", func() { a.Event(2) })
}

// TestCrashedStationCustody: a down station holding packets violates; a
// drained one does not, and StationUp restores normal accounting.
func TestCrashedStationCustody(t *testing.T) {
	a := New()
	depth := 0
	tap := a.RegisterQueue(3, 4, func() int { return depth })
	tap.Enq()
	depth++
	a.Event(1)
	a.StationDown(3)
	mustViolate(t, "crashed-station custody", func() { a.Event(2) })
	tap.Deq()
	depth--
	a.Event(3) // drained: a down station may hold nothing, and holds nothing
	a.StationUp(3)
	tap.Enq()
	depth++
	a.Event(4) // back up: holding packets is normal again
	a.AtDrain()
}

// TestAtDrainChecksQueues: the end-of-run sweep applies the same custody
// checks as per-event validation.
func TestAtDrainChecksQueues(t *testing.T) {
	a := New()
	depth := 0
	a.RegisterQueue(1, 4, func() int { return depth })
	a.AtDrain()
	depth = 2 // both tap (0) and queue (2) claim different custody
	mustViolate(t, "queue custody balance", func() { a.AtDrain() })
}

// TestCheckPoolConservation pins the always-on identity: allocated =
// delivered + dropped + in-flight.
func TestCheckPoolConservation(t *testing.T) {
	CheckPoolConservation(0, 0, 0, 0)
	CheckPoolConservation(10, 4, 3, 3)
	mustViolate(t, "packet conservation", func() { CheckPoolConservation(10, 4, 3, 2) })
	mustViolate(t, "packet conservation", func() { CheckPoolConservation(10, 4, 3, 4) })
}

func TestCheckFramePool(t *testing.T) {
	CheckFramePool(0, 0, 0)
	CheckFramePool(10, 7, 3)
	mustViolate(t, "frame conservation", func() { CheckFramePool(10, 7, 2) })
	mustViolate(t, "frame conservation", func() { CheckFramePool(10, 7, 4) })
}

// TestCheckDelayHist pins the delay histogram's identities against the sum
// it shadows: the same count, and a mean within one bucket — a tolerance
// that holds at a microsecond and at a second, and no wider.
func TestCheckDelayHist(t *testing.T) {
	var h stats.Hist
	CheckDelayHist(1, &h, 0, 0)
	var sum sim.Time
	for _, d := range []sim.Time{3, 900, 1500 * sim.Microsecond, 40 * sim.Millisecond, sim.Second} {
		h.Add(d)
		sum += d
	}
	CheckDelayHist(1, &h, 5, sum/5)
	mustViolate(t, "delay histogram", func() { CheckDelayHist(1, &h, 4, sum/5) })
	mustViolate(t, "delay histogram", func() { CheckDelayHist(1, &h, 5, sum/5*21/20) })
	mustViolate(t, "delay histogram", func() { CheckDelayHist(1, &h, 5, sum/5*19/20) })
	// A delay past the last bucket leaves only the count to check.
	h.Add(1 << 40)
	CheckDelayHist(1, &h, 6, (sum+1<<40)/6)
}
