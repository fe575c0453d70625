package sim

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e == nil || e.canceled }

// Pending reports whether the event is scheduled and has neither fired nor
// been cancelled since.
func (e *Event) Pending() bool { return e != nil && e.index >= 0 }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }
