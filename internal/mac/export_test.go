package mac

import "ripple/internal/pkt"

// PopN removes and returns up to n head packets.
func (q *Queue) PopN(n int) []*pkt.Packet {
	if n > q.count {
		n = q.count
	}
	if n == 0 {
		return nil
	}
	return q.PopNInto(nil, n)
}

// PopNInto removes up to n head packets, appending them to dst (which may
// be a recycled scratch buffer) and returning the extended slice.
func (q *Queue) PopNInto(dst []*pkt.Packet, n int) []*pkt.Packet {
	for ; n > 0 && q.count > 0; n-- {
		dst = append(dst, q.Pop())
	}
	return dst
}

// Busy reports the carrier state as last seen by the contender.
func (c *Contender) Busy() bool { return c.busy }
