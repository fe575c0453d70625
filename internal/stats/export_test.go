package stats

// N returns the number of samples folded in so far.
func (w *Welford) N() int64 { return w.n }
