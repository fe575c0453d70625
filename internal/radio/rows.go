package radio

import "sync/atomic"

// serials numbers link plans as they are built, from 1: a plan's serial is
// the name a Medium's row cache knows it by. Plans are built on many
// goroutines at once — an epoch pipeline, pool workers — so the counter is
// atomic: it is the one variable that builds share.
var serials atomic.Uint64

// buildRows fills a pruned plan's link array with rows 0..n-1 in order,
// calling row(i) to append row i and set its off entry. bound[i] is an upper
// bound on row i's links, and the array is allocated once, with the bounds'
// sum as capacity, so no row's append reallocates it.
func (pl *LinkPlan) buildRows(bound []int32, row func(i int)) {
	total := 0
	for _, b := range bound {
		total += int(b)
	}
	pl.ids = make([]int32, 0, total)
	for i := range bound {
		row(i)
	}
}
