package network

import "ripple/internal/sim"

// EpochLen returns the epoch length of a time-varying world (0 for a
// static one).
func (w *World) EpochLen() sim.Time { return w.epochLen }
