package ripple

import (
	"fmt"

	"ripple/internal/network"
	"ripple/internal/stats"
)

// Metric is one measurement aggregated over a scenario's seeds. Every
// numeric field of Result and FlowResult is a Metric, so confidence
// intervals are available for delay, reordering, MoS and fairness exactly
// as they are for throughput.
type Metric struct {
	// Mean is the arithmetic mean over the seeds.
	Mean float64
	// CI95 is the 95% confidence half-width of Mean (Student t over the
	// seed samples; 0 with fewer than two seeds). Report Mean ± CI95.
	CI95 float64
	// Min and Max bound the per-seed samples.
	Min, Max float64
	// N is the number of seeds folded in.
	N int
}

// String renders the metric as "mean" or "mean ±ci95" when an interval
// is available.
func (m Metric) String() string {
	if m.N >= 2 {
		return fmt.Sprintf("%.3g ±%.2g", m.Mean, m.CI95)
	}
	return fmt.Sprintf("%.3g", m.Mean)
}

// newMetric converts a Welford summary into the public Metric.
func newMetric(s stats.Summary) Metric {
	return Metric{Mean: s.Mean, CI95: s.CI95, Min: s.Min, Max: s.Max, N: int(s.N)}
}

// foldMetric streams one scalar of every per-seed result (in seed order,
// so the numbers are deterministic) through a Welford accumulator.
func foldMetric(results []*network.Result, get func(*network.Result) float64) Metric {
	var w stats.Welford
	for _, r := range results {
		w.Add(get(r))
	}
	return newMetric(w.Summary())
}
