package stats

// JainIndex returns Jain's fairness index over per-flow allocations:
// (Σx)² / (n·Σx²), ranging from 1/n (one flow takes all) to 1 (equal
// shares). Used to judge how the schemes divide capacity in the multi-flow
// experiments (Figs. 3, 6(a)).
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += float64(x * x)
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}
