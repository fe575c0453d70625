package stats

import (
	"math"
	"math/bits"

	"ripple/internal/sim"
)

// The histogram's buckets are log-linear: one nanosecond wide below
// histLinear, and above it each power-of-two octave is split into
// histSub equal buckets, so a bucket is at most 1/histSub of its lower
// bound wide and its midpoint lies within 1/(2·histSub) = 1.6 % of every
// delay it counts. The octaves run to 2^histTopBit ns (68.7 s); a longer
// delay is counted in the last bucket.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits // buckets per octave
	histLinear  = 2 * histSub      // delays below this many ns have a bucket each
	histTopBit  = 36
	histBuckets = histLinear + (histTopBit-histSubBits-1)*histSub
)

// Hist is a fixed-bucket log-linear histogram of delays, from one
// nanosecond to a minute, to within 1.6 % (see histMid). Add does not
// allocate, and Merge is exact: a histogram of a stream equals the merge of
// the histograms of any partition of it, in any grouping, so tails survive
// any way a campaign splits and folds its runs. The zero value is empty.
type Hist struct {
	n      int64
	counts [histBuckets]int64
}

// HistBucket returns the bucket d is counted in; a negative d counts as
// zero.
func HistBucket(d sim.Time) int {
	if d < histLinear {
		return int(max(d, 0))
	}
	// e is d's octave, e ≥ histSubBits+1: its top histSubBits+1 bits pick
	// the bucket within it.
	e := bits.Len64(uint64(d)) - 1
	i := histLinear + (e-histSubBits-1)*histSub + int(uint64(d)>>(e-histSubBits)) - histSub
	return min(i, histBuckets-1)
}

// histBounds returns bucket i's range of delays, [lo, hi).
func histBounds(i int) (lo, hi sim.Time) {
	if i < histLinear {
		return sim.Time(i), sim.Time(i + 1)
	}
	k := i - histLinear
	e := k/histSub + histSubBits + 1
	w := sim.Time(1) << (e - histSubBits)
	lo = sim.Time(1)<<e + sim.Time(k%histSub)*w
	return lo, lo + w
}

// histMid is the value that stands for bucket i's delays: the midpoint of
// the whole nanoseconds in it, within 1.6 % of each of them below the last
// bucket.
func histMid(i int) float64 {
	lo, hi := histBounds(i)
	return float64(lo+hi-1) / 2
}

// Add counts one delay.
func (h *Hist) Add(d sim.Time) {
	h.counts[HistBucket(d)]++
	h.n++
}

// Merge adds o's counts to h's.
func (h *Hist) Merge(o *Hist) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// Count returns the number of delays counted.
func (h *Hist) Count() int64 { return h.n }

// Overflowed reports whether the last bucket, where a delay past the
// buckets' range is counted, holds any delay: Mean then reads low.
func (h *Hist) Overflowed() bool { return h.counts[histBuckets-1] > 0 }

// Mean returns the mean of the bucket midpoints, weighted by their counts,
// in nanoseconds (0 when empty).
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	var sum float64
	for i, c := range h.counts {
		if c > 0 {
			sum += float64(float64(c) * histMid(i))
		}
	}
	return sum / float64(h.n)
}

// Quantile returns the q-quantile of the delays counted, in nanoseconds, by
// nearest rank: the midpoint of the first bucket whose cumulative count
// reaches ⌈q·n⌉ (at least 1), so the exact quantile of the delays lies in
// that bucket's range. It returns 0 when empty.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := min(max(int64(math.Ceil(q*float64(h.n))), 1), h.n)
	var seen int64
	for i, c := range h.counts {
		if seen += c; seen >= rank {
			return histMid(i)
		}
	}
	panic("stats: Hist counts fall short of its total")
}
