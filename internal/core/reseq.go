package core

import (
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
// after in-order delivery. The hold timer is one per stream, so buffering
// allocates nothing after warm-up.
type reseq struct {
	expected int64
	buf      map[int64]*pkt.Packet
	hold     sim.Timer
}

// newReseq pops a recycled resequencer, empty, or allocates one with its
// hold timer bound. A stream's resequencer lasts until its station crashes
// or the run ends.
func (r *Ripple) newReseq() *reseq {
	if q := r.freeRq.Get(); q != nil {
		return q
	}
	q := r.freeRq.Own(&reseq{buf: make(map[int64]*pkt.Packet)})
	q.hold.Bind(r.Eng, func() { r.skipGap(q) })
	return q
}

// wipe returns the resequencer to its pooled state: every field zero but
// the emptied buffer and the bound timer.
func (q *reseq) wipe() {
	clear(q.buf)
	*q = reseq{buf: q.buf, hold: q.hold}
}

// deliver routes a received packet through Rq (when enabled) to transport.
func (r *Ripple) deliver(p *pkt.Packet) {
	if !r.opt.RqEnabled {
		r.Deliver(p)
		return
	}
	key := streamKey{flow: p.FlowID, src: p.Src}
	q, ok := r.rq[key]
	if !ok {
		q = r.newReseq()
		r.rq[key] = q
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
		if _, dup := q.buf[p.MacSeq]; dup {
			r.C.Duplicates++
			return
		}
		if len(q.buf) >= r.opt.RqCap {
			r.skipGap(q)
		}
		q.buf[p.MacSeq] = p
		p.Ref() // the buffer may outlive the source's hold on the packet
		if !q.hold.Armed() {
			q.hold.Arm(r.opt.RqHold)
		}
	}
}

// drain delivers consecutively buffered packets and manages the hold timer.
func (r *Ripple) drain(q *reseq) {
	for {
		p, ok := q.buf[q.expected]
		if !ok {
			break
		}
		delete(q.buf, q.expected)
		q.expected++
		r.Deliver(p)
		p.Release() // delivered in order: the buffer's reference ends
	}
	if len(q.buf) == 0 {
		q.hold.Stop()
	} else {
		q.hold.Arm(r.opt.RqHold)
	}
}

// skipGap advances expected to the lowest buffered sequence number (the
// missing packets were abandoned by the source) and drains from there.
func (r *Ripple) skipGap(q *reseq) {
	if len(q.buf) == 0 {
		return
	}
	low := int64(-1)
	for seq := range q.buf {
		if low < 0 || seq < low {
			low = seq
		}
	}
	q.expected = low
	r.drain(q)
}
