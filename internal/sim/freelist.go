package sim

// FreeList is the last-in, first-out stack of recycled structs behind every
// per-run pool (events, packets, frames, transmission records, relays). It
// only stores: what a struct must look like when it goes back, and whether
// it may go back at all (quarantine under deep audit), is its owner's rule at
// the Put site. Like the engine, it belongs to one run on one goroutine.
type FreeList[T any] struct {
	items []*T
}

// Get pops the most recently recycled struct, or returns nil when there is
// none and the caller must allocate.
func (l *FreeList[T]) Get() *T {
	n := len(l.items)
	if n == 0 {
		return nil
	}
	x := l.items[n-1]
	l.items[n-1] = nil
	l.items = l.items[:n-1]
	return x
}

// Put recycles x.
func (l *FreeList[T]) Put(x *T) { l.items = append(l.items, x) }

// Len reports how many structs are pooled.
func (l *FreeList[T]) Len() int { return len(l.items) }
