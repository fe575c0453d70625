package network

import (
	"math"

	"ripple/internal/sim"
)

// Average combines per-seed results into the per-seed mean of every field,
// per flow and in total. All fields — including the Events, PktsDelivered
// and Transfers counters, which the seed implementation inconsistently
// summed — carry mean semantics; integer counters are rounded to the
// nearest integer. Results must come from the same scenario (same flows in
// the same order). Fields are folded in slice order, so the output is
// bit-identical for a fixed result order regardless of how the runs were
// scheduled.
func Average(results []*Result) *Result {
	if len(results) == 0 {
		return nil
	}
	avg := &Result{Duration: results[0].Duration}
	n := float64(len(results))
	avg.Flows = make([]FlowResult, len(results[0].Flows))
	for i := range avg.Flows {
		avg.Flows[i].ID = results[0].Flows[i].ID
		avg.Flows[i].Kind = results[0].Flows[i].Kind
	}
	var events, stale, unreach, inUse float64
	pkts := make([]float64, len(avg.Flows))
	transfers := make([]float64, len(avg.Flows))
	flowUnreach := make([]float64, len(avg.Flows))
	for _, r := range results {
		avg.TotalMbps += r.TotalMbps / n
		avg.Fairness += r.Fairness / n
		events += float64(r.Events) / n
		stale += float64(r.RouteStale) / n
		unreach += float64(r.Unreachable) / n
		inUse += float64(r.PoolInUse) / n
		for i, f := range r.Flows {
			avg.Flows[i].ThroughputMbps += f.ThroughputMbps / n
			avg.Flows[i].MeanDelay += f.MeanDelay / sim.Time(len(results))
			avg.Flows[i].ReorderRate += f.ReorderRate / n
			pkts[i] += float64(f.PktsDelivered) / n
			transfers[i] += float64(f.Transfers) / n
			flowUnreach[i] += float64(f.Unreachable) / n
			avg.Flows[i].MoS += f.MoS / n
			avg.Flows[i].LossRate += f.LossRate / n
		}
	}
	avg.Events = uint64(math.Round(events))
	avg.RouteStale = uint64(math.Round(stale))
	avg.Unreachable = uint64(math.Round(unreach))
	avg.PoolInUse = int(math.Round(inUse))
	for i := range avg.Flows {
		avg.Flows[i].PktsDelivered = int64(math.Round(pkts[i]))
		avg.Flows[i].Transfers = int64(math.Round(transfers[i]))
		avg.Flows[i].Unreachable = int64(math.Round(flowUnreach[i]))
	}
	return avg
}
