package pkt

// Free reports how many packets are currently pooled (tests).
func (pl *Pool) Free() int { return pl.free.Len() }
