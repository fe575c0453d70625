// Package audit is the simulator's invariant-audit plane. The paper's
// schemes lean on conservation properties — every opportunistic duplicate
// accounted for, custody always balanced, event time never flowing
// backwards — that the test suite asserts at a few chosen points. This
// package turns them into a catalogue checkable at any point of any run.
//
// Two cost tiers share the catalogue:
//
//   - Always-on counters are maintained unconditionally because they are
//     nearly free: pkt.Pool counts allocations and classifies every final
//     release as delivered or dropped, and network.Run verifies the
//     conservation identity (allocated = delivered + dropped + in-flight)
//     after every drain via CheckPoolConservation; pkt.FramePool's
//     counters get the same check from CheckFramePool, and each flow's
//     delay histogram is held to its delay sum by CheckDelayHist.
//
//   - Deep mode (ripple.Scenario.Audit, `ripplesim -audit`, or the
//     RIPPLE_AUDIT environment variable) attaches an Auditor: MAC queues
//     report every enqueue/dequeue through QueueTaps, and the engine
//     re-validates the catalogue after every event, so a violation
//     panics within one event of the state transition that caused it —
//     with a structured report — instead of surfacing as a corrupt
//     result table long after.
//
// A nil *Auditor is valid and inert: every method nil-checks, so wired
// code pays one predictable branch when auditing is off.
package audit

import (
	"fmt"
	"strings"

	"ripple/internal/sim"
	"ripple/internal/stats"
)

// QueueBoundSlack is how far past its configured limit a MAC queue may
// transiently grow: PushFront reinserts the in-service batch (bounded by
// the aggregation limit, 16) ahead of the limit check so that partial
// retransmission never loses custody of unacked packets.
const QueueBoundSlack = 16

// QueueTap mirrors one MAC queue's depth as seen through its
// enqueue/dequeue call sites. The audit cross-checks the mirror against
// the queue's own Len() after every event: a divergence means some
// mutation path bypassed the taps — custody changed hands untracked.
type QueueTap struct {
	station int
	limit   int
	depth   int
	lenFn   func() int
}

// Enq records one enqueue. Safe on a nil tap (auditing off).
func (t *QueueTap) Enq() {
	if t != nil {
		t.depth++
	}
}

// Deq records one dequeue. Safe on a nil tap.
func (t *QueueTap) Deq() {
	if t != nil {
		t.depth--
	}
}

// Auditor holds deep-mode audit state for one run. Like the engine it
// watches, an Auditor is single-goroutine. The zero value is not used;
// create with New. A nil *Auditor is inert.
type Auditor struct {
	taps []*QueueTap
	down map[int]bool
	last int64 // most recent event time observed
	n    uint64
}

// New returns an empty deep-mode auditor.
func New() *Auditor {
	return &Auditor{down: make(map[int]bool)}
}

// RegisterQueue attaches a tap for one station's MAC queue. lenFn must
// report the queue's current depth. Returns nil when the auditor is nil,
// which the tap methods tolerate.
func (a *Auditor) RegisterQueue(station, limit int, lenFn func() int) *QueueTap {
	if a == nil {
		return nil
	}
	t := &QueueTap{station: station, limit: limit, lenFn: lenFn}
	a.taps = append(a.taps, t)
	return t
}

// StationDown records a station crash: its custody must drain to zero and
// stay there until StationUp.
func (a *Auditor) StationDown(station int) {
	if a != nil {
		a.down[station] = true
	}
}

// StationUp clears a station's crashed status.
func (a *Auditor) StationUp(station int) {
	if a != nil {
		delete(a.down, station)
	}
}

// Event validates the catalogue after one engine event at time now:
// event time is monotone, every tap agrees with its queue, every queue
// respects its bound (plus the in-service slack), and crashed stations
// hold nothing. Panics with a structured report on the first violation.
func (a *Auditor) Event(now int64) {
	if a == nil {
		return
	}
	a.n++
	if now < a.last {
		a.violate("event-time monotonicity",
			"event at t=%d after event at t=%d", now, a.last)
	}
	a.last = now
	a.checkQueues()
}

// AtDrain validates the end-of-run catalogue after the engine has
// quiesced: tap consistency and crashed-station custody as in Event.
// (Pool conservation is checked by the caller via CheckPoolConservation,
// which has the counters in hand.)
func (a *Auditor) AtDrain() {
	if a == nil {
		return
	}
	a.checkQueues()
}

func (a *Auditor) checkQueues() {
	for _, t := range a.taps {
		actual := t.lenFn()
		if t.depth != actual {
			a.violate("queue custody balance",
				"station %d: tap depth %d, queue reports %d", t.station, t.depth, actual)
		}
		if actual > t.limit+QueueBoundSlack {
			a.violate("queue bound respect",
				"station %d: depth %d exceeds limit %d + slack %d",
				t.station, actual, t.limit, QueueBoundSlack)
		}
		if a.down[t.station] && actual != 0 {
			a.violate("crashed-station custody",
				"station %d is down but holds %d packets", t.station, actual)
		}
	}
}

// violate panics with a structured report naming the broken invariant.
func (a *Auditor) violate(invariant, format string, args ...any) {
	var b strings.Builder
	fmt.Fprintf(&b, "audit: invariant violated: %s\n", invariant)
	fmt.Fprintf(&b, "  detail: %s\n", fmt.Sprintf(format, args...))
	fmt.Fprintf(&b, "  after event %d at t=%d", a.n, a.last)
	panic(b.String())
}

// CheckPoolConservation verifies the packet-pool conservation identity —
// every allocation is exactly one of delivered, dropped, or still in
// flight — and panics with a structured report when it fails. Maintained
// always-on: the counters it reads cost one increment per packet
// lifetime, so every run checks it at drain, deep mode or not.
func CheckPoolConservation(gets, delivered, dropped, inUse int) {
	if gets == delivered+dropped+inUse {
		return
	}
	panic(fmt.Sprintf(
		"audit: invariant violated: packet conservation\n"+
			"  detail: allocated %d != delivered %d + dropped %d + in-flight %d (= %d)",
		gets, delivered, dropped, inUse, delivered+dropped+inUse))
}

// CheckDelayHist verifies that flow's delay histogram agrees with the sum
// and count its delays were also accumulated in: it counted as many delays,
// and unless a delay overflowed its range, the mean of its bucket midpoints
// lies within one bucket of the exact mean. Always-on, like the pool
// identities: it reads what the fold has in hand.
func CheckDelayHist(flow int, h *stats.Hist, count int64, mean sim.Time) {
	var detail string
	switch {
	case h.Count() != count:
		detail = fmt.Sprintf("flow %d: the histogram counts %d delays, the sum %d", flow, h.Count(), count)
	case h.Overflowed():
		return
	default:
		got, want := stats.HistBucket(sim.Time(h.Mean())), stats.HistBucket(mean)
		if got >= want-1 && got <= want+1 {
			return
		}
		detail = fmt.Sprintf("flow %d: the histogram's mean %.0f ns is in bucket %d, the mean delay %d ns in bucket %d",
			flow, h.Mean(), got, int64(mean), want)
	}
	panic("audit: invariant violated: delay histogram\n  detail: " + detail)
}

// CheckFramePool verifies the frame pool's identity — every frame handed
// out has been recycled or is still held — the same way, and as always-on.
func CheckFramePool(gets, recycled, inUse int) {
	if gets == recycled+inUse {
		return
	}
	panic(fmt.Sprintf(
		"audit: invariant violated: frame conservation\n"+
			"  detail: handed out %d != recycled %d + in use %d (= %d)",
		gets, recycled, inUse, recycled+inUse))
}
