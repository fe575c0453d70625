package core

import (
	"cmp"
	"slices"

	"ripple/internal/pkt"
	"ripple/internal/sim"
)

// reseq is the receive queue Rq of the paper's Remark 6: with aggregation,
// packets of one frame can be partially corrupted, so a correct packet with
// a higher sequence number may arrive before the retransmission of a
// corrupted lower one. Rq holds such packets and delivers in order. A hold
// timeout bounds head-of-line blocking when the source permanently dropped
// a packet (retry limit), in which case Rq skips the gap.
//
// Buffered packets carry a reference (pkt.Pool): the buffer may outlive
// the source's own hold on a packet, so Rq refs on insert and releases
// after in-order delivery. The buffer is a slice kept sorted by MacSeq, at
// most RqCap long, and the hold timer is one per stream, so buffering
// allocates nothing after warm-up.
type reseq struct {
	expected int64
	buf      []*pkt.Packet
	hold     sim.Timer
}

// newReseq pops a recycled resequencer, empty, or allocates one with its
// hold timer bound. A stream's resequencer lasts until its station crashes
// or the run ends.
func (r *Ripple) newReseq() *reseq {
	if q := r.freeRq.Get(); q != nil {
		return q
	}
	q := r.freeRq.Own(&reseq{})
	q.hold.Bind(r.Eng, func() { r.skipGap(q) })
	return q
}

// wipe returns the resequencer to its pooled state: every field zero but
// the emptied buffer and the bound timer.
func (q *reseq) wipe() {
	clear(q.buf)
	*q = reseq{buf: q.buf[:0], hold: q.hold}
}

// search returns where seq is, or would be inserted, in the buffer, and
// whether it is there.
func (q *reseq) search(seq int64) (int, bool) {
	return slices.BinarySearchFunc(q.buf, seq, func(p *pkt.Packet, seq int64) int {
		return cmp.Compare(p.MacSeq, seq)
	})
}

// deliver routes a received packet through Rq (when enabled) to transport.
func (r *Ripple) deliver(p *pkt.Packet) {
	if r.opt.RqOff {
		r.Deliver(p)
		return
	}
	s := int(p.Stream)
	r.rq = pkt.Extend(r.rq, s)
	q := r.rq[s]
	if q == nil {
		q = r.newReseq()
		r.rq[s] = q
	}
	switch {
	case p.MacSeq < q.expected:
		r.C.Duplicates++
		return
	case p.MacSeq == q.expected:
		q.expected++
		r.Deliver(p)
		r.drain(q)
	default: // gap: buffer and wait for the end-to-end retransmission
		if _, dup := q.search(p.MacSeq); dup {
			r.C.Duplicates++
			return
		}
		if len(q.buf) >= r.opt.RqCap {
			r.skipGap(q)
		}
		i, _ := q.search(p.MacSeq)
		q.buf = slices.Insert(q.buf, i, p)
		p.Ref() // the buffer may outlive the source's hold on the packet
		if !q.hold.Armed() {
			q.hold.Arm(r.opt.RqHold)
		}
	}
}

// drain delivers consecutively buffered packets and manages the hold timer.
// The packet numbered expected is normally the head; only one buffered by
// a cap overflow's skip (below) can sort ahead of it.
func (r *Ripple) drain(q *reseq) {
	if len(q.buf) > 0 {
		i, _ := q.search(q.expected)
		for i < len(q.buf) && q.buf[i].MacSeq == q.expected {
			p := q.buf[i]
			q.buf = slices.Delete(q.buf, i, i+1)
			q.expected++
			r.Deliver(p)
			p.Release() // delivered in order: the buffer's reference ends
		}
	}
	if len(q.buf) == 0 {
		q.hold.Stop()
	} else {
		q.hold.Arm(r.opt.RqHold)
	}
}

// skipGap advances expected to the lowest buffered sequence number, the
// head (the missing packets were abandoned by the source), and drains from
// there. A gap that overflows the buffer skips before the arriving packet
// is buffered, which can leave that packet below expected: a later skip
// delivers it.
func (r *Ripple) skipGap(q *reseq) {
	if len(q.buf) == 0 {
		return
	}
	q.expected = q.buf[0].MacSeq
	r.drain(q)
}
