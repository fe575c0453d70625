package mac

import (
	"ripple/internal/audit"
	"ripple/internal/pkt"
)

// Queue is the drop-tail MAC interface queue (Sq in the paper). The zero
// value is unusable; create with NewQueue, or Init one in place.
//
// The implementation is a growable ring buffer, so every operation —
// including PushFront, which the retransmission and piggyback-reclaim
// paths hit per packet — runs in O(1) without allocating. PopNInto and
// PopNWhereInto append into a caller-supplied slice, letting hot callers
// recycle one scratch buffer across exchanges.
type Queue struct {
	limit   int
	buf     []*pkt.Packet // ring storage, len(buf) is a power of two
	head    int           // index of the first queued packet
	count   int
	drops   uint64
	maxSeen int
	// tap mirrors enqueues/dequeues into the deep-audit plane; nil (the
	// default) costs one predicted branch per operation.
	tap *audit.QueueTap
}

// SetAudit attaches a deep-audit tap; every enqueue and dequeue is
// mirrored into it so the auditor can cross-check custody after each
// engine event. A nil tap (auditing off) is the default.
func (q *Queue) SetAudit(t *audit.QueueTap) { q.tap = t }

// NewQueue creates a queue holding at most limit packets. (Front
// reinsertion may transiently exceed the limit; the ring grows on demand.)
func NewQueue(limit int) *Queue {
	q := &Queue{}
	q.Init(limit)
	return q
}

// Init empties the queue, in place, for a limit of limit packets: every
// field zero but the ring, which keeps the size it has grown to when that
// is enough. A station chassis re-initialises its queue between the runs of
// a run arena.
func (q *Queue) Init(limit int) {
	capacity := 1
	for capacity < limit {
		capacity *= 2
	}
	buf := q.buf
	if len(buf) < capacity {
		buf = make([]*pkt.Packet, capacity)
	}
	clear(buf)
	*q = Queue{limit: limit, buf: buf}
}

// grow doubles the ring, linearising the queue to the front.
func (q *Queue) grow() {
	next := make([]*pkt.Packet, 2*len(q.buf))
	mask := len(q.buf) - 1
	for i := 0; i < q.count; i++ {
		next[i] = q.buf[(q.head+i)&mask]
	}
	q.buf = next
	q.head = 0
}

// Push appends a packet; it reports false (and counts a drop) if full.
func (q *Queue) Push(p *pkt.Packet) bool {
	if q.count >= q.limit {
		q.drops++
		return false
	}
	if q.count == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.count)&(len(q.buf)-1)] = p
	q.count++
	if q.count > q.maxSeen {
		q.maxSeen = q.count
	}
	q.tap.Enq()
	return true
}

// PushFront reinserts a packet at the head (retransmission priority).
// Front insertions are allowed to exceed the limit by the in-service batch
// so that partial retransmission never loses custody of unacked packets.
func (q *Queue) PushFront(p *pkt.Packet) {
	if q.count == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = p
	q.count++
	q.tap.Enq()
}

// Pop removes and returns the head packet, or nil when empty.
func (q *Queue) Pop() *pkt.Packet {
	if q.count == 0 {
		return nil
	}
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.count--
	q.tap.Deq()
	return p
}

// PopNWhereInto removes up to n head-most packets satisfying keep,
// appending them to dst (which may be a recycled scratch buffer, or the
// frame they will ride on) and returning the extended slice. Used by
// senders that aggregate only packets bound for the same next hop. The
// remainder is compacted in place within the ring, so the non-selected
// packets keep their order without allocation.
func (q *Queue) PopNWhereInto(dst []*pkt.Packet, n int, keep func(*pkt.Packet) bool) []*pkt.Packet {
	if n == 0 || q.count == 0 {
		return dst
	}
	mask := len(q.buf) - 1
	taken := 0
	w := 0 // logical write index of the next kept-back packet
	for i := 0; i < q.count; i++ {
		p := q.buf[(q.head+i)&mask]
		if taken < n && keep(p) {
			dst = append(dst, p)
			taken++
			q.tap.Deq()
			continue
		}
		q.buf[(q.head+w)&mask] = p
		w++
	}
	for i := w; i < q.count; i++ {
		q.buf[(q.head+i)&mask] = nil
	}
	q.count = w
	return dst
}

// Peek returns the head packet without removing it, or nil when empty.
func (q *Queue) Peek() *pkt.Packet {
	if q.count == 0 {
		return nil
	}
	return q.buf[q.head]
}

// Len returns the number of queued packets.
func (q *Queue) Len() int { return q.count }
