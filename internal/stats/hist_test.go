package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ripple/internal/sim"
)

// histOf counts a slice of delays in a fresh histogram.
func histOf(ds []sim.Time) *Hist {
	h := new(Hist)
	for _, d := range ds {
		h.Add(d)
	}
	return h
}

// delays draws n delays log-uniform between 100 ns and 20 s, the range a
// run's packets span, with a few exact small values mixed in.
func delays(rng *rand.Rand, n int) []sim.Time {
	ds := make([]sim.Time, n)
	for i := range ds {
		if rng.Intn(10) == 0 {
			ds[i] = sim.Time(rng.Intn(histLinear + 5))
			continue
		}
		ds[i] = sim.Time(math.Exp(math.Log(100) + rng.Float64()*(math.Log(20e9)-math.Log(100))))
	}
	return ds
}

// The buckets tile the delays from zero up without gap or overlap, every
// delay falls in the bucket whose bounds hold it, and from one nanosecond
// to 10 s every bucket's midpoint lies within 2 % of each whole nanosecond
// in it.
func TestHistBucketsTileWithinTwoPercent(t *testing.T) {
	tenSeconds := HistBucket(10 * sim.Second)
	var next sim.Time
	for i := 0; i < histBuckets; i++ {
		lo, hi := histBounds(i)
		if lo != next || hi <= lo {
			t.Fatalf("bucket %d is [%d, %d), want it to start at %d", i, lo, hi, next)
		}
		next = hi
		for _, d := range []sim.Time{lo, hi - 1, lo + (hi-lo)/2} {
			if got := HistBucket(d); got != i {
				t.Fatalf("HistBucket(%d) = %d, want %d: [%d, %d)", d, got, i, lo, hi)
			}
		}
		if i > tenSeconds || lo == 0 {
			continue
		}
		mid := histMid(i)
		if e := max(mid-float64(lo), float64(hi-1)-mid) / float64(lo); e > 0.02 {
			t.Fatalf("bucket %d [%d, %d): midpoint %v is %.2f %% off a delay in it", i, lo, hi, mid, 100*e)
		}
	}
	if got := HistBucket(-5); got != 0 {
		t.Errorf("HistBucket(-5) = %d, want 0", got)
	}
	if got := HistBucket(math.MaxInt64); got != histBuckets-1 {
		t.Errorf("HistBucket(max) = %d, want the last bucket %d", got, histBuckets-1)
	}
	if _, hi := histBounds(histBuckets - 1); hi < 60*sim.Second {
		t.Errorf("the buckets end at %v, want a minute", hi)
	}
}

// Add counts a delay without allocating.
func TestHistAddAllocatesNothing(t *testing.T) {
	var h Hist
	d := sim.Time(1)
	if n := testing.AllocsPerRun(100, func() { d = d*3 + 7; h.Add(d % (20 * sim.Second)) }); n != 0 {
		t.Fatalf("Add allocated %v objects", n)
	}
}

// The distribution-correctness property, as for Welford's Merge: a
// histogram of a random stream split at random boundaries, each part
// counted on its own and the parts merged left to right, equals the
// histogram of the whole stream exactly — counts are integers, so no
// rounding can enter, whatever the partition.
func TestHistMergePartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		ds := delays(rng, 1+rng.Intn(300))
		serial := histOf(ds)
		var merged Hist
		start := 0
		for i := 1; i <= len(ds); i++ {
			if i == len(ds) || rng.Intn(4) == 0 {
				merged.Merge(histOf(ds[start:i]))
				start = i
			}
		}
		if merged != *serial {
			t.Fatalf("trial %d: the merge of a partition differs from the serial histogram", trial)
		}
	}
}

// Merge is associative and commutative: (a ∪ b) ∪ c = a ∪ (b ∪ c) = c ∪ (b ∪ a).
func TestHistMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		a, b, c := histOf(delays(rng, 40)), histOf(delays(rng, 3)), histOf(delays(rng, 200))
		left, right, rev := *a, *b, *c
		left.Merge(b)
		left.Merge(c)
		right.Merge(c)
		abc := *a
		abc.Merge(&right)
		rev.Merge(b)
		rev.Merge(a)
		if left != abc || left != rev {
			t.Fatalf("trial %d: merge order changed the histogram", trial)
		}
	}
}

// Merging single-delay histograms one at a time is Add, bit for bit, and
// the empty histogram is the identity on either side.
func TestHistMergeSingletonAndEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var byAdd, byMerge Hist
	for _, d := range delays(rng, 500) {
		byAdd.Add(d)
		var one Hist
		one.Add(d)
		byMerge.Merge(&one)
	}
	if byAdd != byMerge {
		t.Fatal("singleton merges diverged from Add")
	}
	before := byAdd
	byAdd.Merge(new(Hist))
	var empty Hist
	empty.Merge(&before)
	if byAdd != before || empty != before {
		t.Fatal("merging the empty histogram changed a histogram")
	}
}

// The mean of the midpoints is within 1.6 % of the exact mean.
func TestHistMean(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		ds := delays(rng, 1000+rng.Intn(2000))
		h := histOf(ds)
		var sum float64
		for _, d := range ds {
			sum += float64(d)
		}
		if mean := sum / float64(len(ds)); math.Abs(h.Mean()-mean) > mean/64 {
			t.Fatalf("trial %d: mean %v, exact %v", trial, h.Mean(), mean)
		}
	}
	var empty Hist
	if empty.Mean() != 0 || empty.Count() != 0 {
		t.Fatal("the empty histogram reads non-zero")
	}
}

// Quantile is the nearest rank read from the buckets: for seeded samples
// from a uniform, a log-normal and a heavy-tailed (Pareto) distribution,
// the exact nearest-rank quantile of the sorted sample — element ⌈q·n⌉ —
// lies within the bounds of the bucket whose midpoint Quantile returns, for
// q = 0.5, 0.95, 0.99 and 1.
func TestHistQuantileNearestRank(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	draws := []struct {
		name string
		draw func() float64
	}{
		{"uniform", func() float64 { return 1e3 + rng.Float64()*50e6 }},
		{"lognormal", func() float64 { return math.Exp(math.Log(2e6) + 1.5*rng.NormFloat64()) }},
		{"pareto", func() float64 { return 5e5 / math.Pow(1-rng.Float64(), 1/1.1) }},
	}
	for _, d := range draws {
		name, draw := d.name, d.draw
		for trial := 0; trial < 20; trial++ {
			ds := make([]sim.Time, 1+rng.Intn(3000))
			for i := range ds {
				ds[i] = sim.Time(min(draw(), 60e9))
			}
			h := histOf(ds)
			slices.Sort(ds)
			for _, q := range []float64{0.5, 0.95, 0.99, 1} {
				exact := ds[max(int(math.Ceil(q*float64(len(ds)))), 1)-1]
				got := h.Quantile(q)
				i := HistBucket(exact)
				if lo, hi := histBounds(i); got != histMid(i) || exact < lo || exact >= hi {
					t.Fatalf("%s trial %d, n=%d: Quantile(%v) = %v, the exact %v lies in bucket %d [%d, %d) of midpoint %v",
						name, trial, len(ds), q, got, exact, i, lo, hi, histMid(i))
				}
			}
		}
	}
	var empty Hist
	if empty.Quantile(0.5) != 0 {
		t.Fatal("the empty histogram's median is not 0")
	}
}
