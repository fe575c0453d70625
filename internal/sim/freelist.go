package sim

// FreeList is the last-in, first-out stack of recycled structs behind every
// per-run pool (events, packets, frames, transmission records, relays). It
// only stores: what a struct must look like when it goes back, and whether
// it may go back at all (quarantine under deep audit), is its owner's rule at
// the Put site. Like the engine, it belongs to one run on one goroutine.
//
// A list can also be given charge of the structs allocated for it (Own), so
// that a run arena can take them all back between runs (Recall) wherever the
// last run left them.
type FreeList[T any] struct {
	items []*T
	owned []*T
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

// Own puts the newly allocated x in the list's charge and returns it: a
// later Recall brings it back whether or not anyone Put it.
func (l *FreeList[T]) Own(x *T) *T {
	l.owned = append(l.owned, x)
	return x
}

// Recall takes back every struct the list owns — pooled, queued, on the air
// or behind an event that will now never fire — passing each through wipe,
// which must leave it as its owner's Put site would. Whoever still held one
// must be forgotten by the caller: after Recall the list will hand it out
// again.
func (l *FreeList[T]) Recall(wipe func(*T)) {
	for _, x := range l.owned {
		wipe(x)
	}
	l.items = append(l.items[:0], l.owned...)
}

// Len reports how many structs are pooled.
func (l *FreeList[T]) Len() int { return len(l.items) }
