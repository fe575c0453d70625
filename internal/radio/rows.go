package radio

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// serials numbers link plans as they are built, from 1: a plan's serial is
// the name a Medium's row cache knows it by. Plans are built on many
// goroutines at once — an epoch pipeline, pool workers — so the counter is
// atomic: it is the one variable that builds share.
var serials atomic.Uint64

// rowChunkFloor is the size, in bounded links, below which a pruned plan's
// rows are built on the calling goroutine. Measured on a two-core Xeon, two
// chunks lose on a 2.5 k-link plan (0.59 → 0.81 ms), break even near 10 k
// links and halve a 40 k-link build. Below the floor the saving is a few
// milliseconds, and the worlds that small — every figure world (at most
// 4 k links), the chain, the pinned 200-station city (30 k) — are built
// inside campaign pools that already keep every core busy, so they stay
// serial and keep their allocation counts.
const rowChunkFloor = 64 << 10

// buildRows fills a pruned plan's link array with rows 0..n-1 in order,
// calling row(v, i) to append row i to v. bound[i] is an upper bound on row
// i's links, and the array is allocated once, with the bounds' sum as
// capacity.
//
// The rows are split into chunks contiguous runs of about equal bound (0
// picks 1 under rowChunkFloor links and GOMAXPROCS above it). Each chunk
// appends into its own window of the one array — v is the plan with its
// link array cut to ids[base:base:end], where base is the sum of the bounds
// before the chunk and end the sum through it — so a chunk can neither
// reach its neighbour's window nor grow a copy of its own. Rows record
// their off entry relative to the window. Once every chunk is done, copy
// moves each window's rows down to close the gap the bounds left, and the
// chunk's off entries shift by its final start. A row is the same function
// of its inputs whichever chunk builds it, so the plan does not depend on
// the chunk count. One chunk is the serial build: its window is the whole
// array, it runs on the caller's goroutine, and nothing moves.
//
// A row that outgrew its bound would make its chunk's append leave the
// window for a new array, and the moves would then copy stale links;
// buildRows panics instead. A panic on a chunk goroutine is raised again on
// the caller's, with that goroutine's stack, once every chunk is done, so a
// set-up panic reaches the caller's recover as a serial one would.
func (pl *LinkPlan) buildRows(bound []int32, chunks int, row func(v *LinkPlan, i int)) {
	total := 0
	for _, b := range bound {
		total += int(b)
	}
	pl.ids = make([]int32, 0, total)
	if chunks <= 0 {
		chunks = 1
		if total >= rowChunkFloor {
			chunks = runtime.GOMAXPROCS(0)
		}
	}

	type chunk struct {
		lo, hi    int // rows
		base, end int // window
		v         LinkPlan
		crash     any // a panic of the chunk's rows, with its stack
	}
	parts := make([]chunk, chunks)
	lo, sum := 0, 0
	for c := range parts {
		hi, base := lo, sum
		for limit := total * (c + 1) / chunks; hi < len(bound) && sum < limit; hi++ {
			sum += int(bound[hi])
		}
		if c == chunks-1 {
			hi = len(bound) // rows bounded at 0 after the last link
		}
		parts[c] = chunk{lo: lo, hi: hi, base: base, end: sum, v: pl.window(base, sum)}
		lo = hi
	}
	build := func(p *chunk) {
		defer func() {
			if r := recover(); r != nil {
				p.crash = fmt.Sprintf("%v\n\n%s", r, debug.Stack())
			}
		}()
		for i := p.lo; i < p.hi; i++ {
			row(&p.v, i)
		}
	}
	var wg sync.WaitGroup
	for c := range parts[1:] {
		wg.Add(1)
		go func(p *chunk) {
			defer wg.Done()
			build(p)
		}(&parts[c+1])
	}
	build(&parts[0])
	wg.Wait()
	for _, p := range parts {
		if p.crash != nil {
			panic(p.crash)
		}
		if len(p.v.ids) > p.end-p.base {
			panic(fmt.Sprintf("radio: rows [%d, %d) hold %d links, over their bound of %d", p.lo, p.hi, len(p.v.ids), p.end-p.base))
		}
	}

	used := 0
	for _, p := range parts {
		n := len(p.v.ids)
		if p.base != used {
			copy(pl.ids[used:used+n], pl.ids[p.base:p.base+n])
		}
		for i := p.lo; i < p.hi; i++ {
			pl.off[i+1] += int64(used)
		}
		used += n
	}
	pl.ids = pl.ids[:used]
}

// window returns the plan with its link array cut to the empty window
// [base, end) of its capacity, for one chunk of buildRows to append into.
func (pl *LinkPlan) window(base, end int) LinkPlan {
	v := *pl
	v.ids = pl.ids[base:base:end]
	return v
}
