package routing

import "math"

// PathCost returns the policy's metric for a given path under a backlog:
// the summed link ETX plus Alpha per queued packet at every traversed relay
// (endpoints excluded). It is the quantity Route minimises, exposed for
// tests and diagnostics.
func (p *CongestionPolicy) PathCost(path Path, backlog BacklogFunc) float64 {
	if len(path) < 2 {
		return 0
	}
	cost := p.cost(path.Dst(), backlog)
	var sum float64
	for i := 0; i+1 < len(path); i++ {
		etx := p.t.LinkETX(path[i], path[i+1])
		if math.IsInf(etx, 1) {
			return math.Inf(1)
		}
		sum += cost(path[i], path[i+1], etx)
	}
	return sum
}
