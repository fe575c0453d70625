package phys

import "ripple/internal/sim"

// ACKTimeout returns how long a transmitter waits for the first bit of an
// ACK after its data frame ends before declaring failure: SIFS + one slot
// of scheduling slack + PLCP header detection time.
func (p Params) ACKTimeout() sim.Time {
	return p.SIFS + p.Slot + p.PHYHdr + p.ACKTime()
}
