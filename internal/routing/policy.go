package routing

import (
	"fmt"
	"math"
	"sort"

	"ripple/internal/pkt"
)

// BacklogFunc reports the current MAC send-queue depth (packets, including
// any in-service batch) at a station. Dynamic policies fold it into their
// route metric; a nil BacklogFunc means "no load information yet" and
// policies fall back to their unloaded metric.
type BacklogFunc func(pkt.NodeID) int

// Policy computes a flow's route: the source..destination node sequence
// that predetermined schemes walk hop-by-hop and opportunistic schemes use
// as the prioritised forwarder list. The route-discovery metric is the
// paper's one explicitly orthogonal axis ("RIPPLE can easily incorporate
// any forwarder selection schemes", §III-B1); Policy is the seam that makes
// it swappable.
type Policy interface {
	// Name labels the policy in sweep axes and results.
	Name() string
	// Route computes the path from src to dst under the current backlog
	// (nil when no load information is available).
	Route(src, dst pkt.NodeID, backlog BacklogFunc) (Path, error)
	// Dynamic reports whether the metric depends on backlog, i.e. whether
	// routes are worth recomputing while the run is in flight.
	Dynamic() bool
}

// ETXPolicy is the classic static policy: minimum summed ETX over the link
// table (De Couto et al., MobiCom 2003), the metric ExOR and MORE use.
type ETXPolicy struct {
	t *Table
}

// NewETXPolicy wraps a link table as the minimum-ETX route policy.
func NewETXPolicy(t *Table) *ETXPolicy { return &ETXPolicy{t: t} }

// Name implements Policy.
func (p *ETXPolicy) Name() string { return "etx" }

// Dynamic implements Policy: ETX ignores load.
func (p *ETXPolicy) Dynamic() bool { return false }

// Route implements Policy.
func (p *ETXPolicy) Route(src, dst pkt.NodeID, _ BacklogFunc) (Path, error) {
	return p.t.ShortestPath(src, dst)
}

// DefaultCongestionAlpha is the default backlog weight of the
// congestion-diversity policy, in ETX units per queued packet. At 0.25 a
// relay sitting on four queued packets looks one extra transmission worse —
// enough to divert traffic onto an idle detour of similar length without
// letting a transient queue blip overrule a genuinely shorter route.
const DefaultCongestionAlpha = 0.25

// CongestionPolicy routes around queue buildup, after Bhorkar et al.'s
// opportunistic routing with congestion diversity (ORCD): the cost of
// entering a relay is its link ETX plus Alpha times the relay's current
// backlog, so persistent queues repel routes while loss still dominates on
// an unloaded network. Entering the destination never pays a backlog
// penalty — its queue holds traffic it originates, not traffic it must
// still forward.
type CongestionPolicy struct {
	t *Table
	// Alpha is the backlog weight in ETX units per queued packet
	// (DefaultCongestionAlpha when constructed with alpha <= 0).
	Alpha float64
}

// NewCongestionPolicy builds the congestion-diversity policy over a link
// table; alpha <= 0 selects DefaultCongestionAlpha.
func NewCongestionPolicy(t *Table, alpha float64) *CongestionPolicy {
	if alpha <= 0 {
		alpha = DefaultCongestionAlpha
	}
	return &CongestionPolicy{t: t, Alpha: alpha}
}

// Name implements Policy.
func (p *CongestionPolicy) Name() string { return "congestion" }

// Dynamic implements Policy: routes follow the queues.
func (p *CongestionPolicy) Dynamic() bool { return true }

// Route implements Policy.
func (p *CongestionPolicy) Route(src, dst pkt.NodeID, backlog BacklogFunc) (Path, error) {
	return p.t.ShortestPathCost(src, dst, p.cost(dst, backlog))
}

// Table exposes the policy's link table (for wrappers and diagnostics).
func (p *CongestionPolicy) Table() *Table { return p.t }

func (p *CongestionPolicy) cost(dst pkt.NodeID, backlog BacklogFunc) LinkCostFunc {
	return func(_, v pkt.NodeID, etx float64) float64 {
		if backlog == nil || v == dst {
			return etx
		}
		return etx + float64(p.Alpha*float64(backlog(v)))
	}
}

// SizingRule selects which relays survive when a forwarder-candidate set is
// resized to K (Blomer & Jindal, "How many relays should there be?": the
// candidate-set size materially changes opportunistic gains).
type SizingRule int

const (
	// SizeSpaced keeps evenly spaced relays along the route (the paper's
	// Remark 4 convention, matching Path.Limit). The default.
	SizeSpaced SizingRule = iota
	// SizeNearDst keeps the K relays closest to the destination by ETX:
	// late diversity, long first hop.
	SizeNearDst
	// SizeNearSrc keeps the K relays closest to the source by ETX: early
	// diversity, long last hop.
	SizeNearSrc
)

// String names the rule for sweep labels.
func (r SizingRule) String() string {
	switch r {
	case SizeSpaced:
		return "spaced"
	case SizeNearDst:
		return "neardst"
	case SizeNearSrc:
		return "nearsrc"
	default:
		return fmt.Sprintf("SizingRule(%d)", int(r))
	}
}

// SizedPolicy wraps another policy and forces its routes to carry exactly
// min(K, available) intermediate relays: longer candidate sets are
// truncated by the sizing rule, shorter ones are padded with off-route
// stations that make ETX progress toward the destination (each inserted
// relay must have usable links to its new neighbours, so padded paths stay
// walkable hop-by-hop for predetermined schemes too). K counts relays
// between the endpoints, excluding both.
type SizedPolicy struct {
	inner Policy
	t     *Table
	// K is the target number of intermediate relays.
	K int
	// Rule orders relays when truncating.
	Rule SizingRule
}

// Sized wraps a policy with the K-relay sizing rule over the given table.
// K <= 0 keeps endpoints only (a direct route attempt).
func Sized(inner Policy, t *Table, k int, rule SizingRule) *SizedPolicy {
	return &SizedPolicy{inner: inner, t: t, K: k, Rule: rule}
}

// Name implements Policy, e.g. "etx+k3" or "congestion+k2/neardst".
func (p *SizedPolicy) Name() string {
	name := fmt.Sprintf("%s+k%d", p.inner.Name(), p.K)
	if p.Rule != SizeSpaced {
		name += "/" + p.Rule.String()
	}
	return name
}

// Dynamic implements Policy, deferring to the wrapped policy.
func (p *SizedPolicy) Dynamic() bool { return p.inner.Dynamic() }

// Route implements Policy: the inner route resized to K relays.
func (p *SizedPolicy) Route(src, dst pkt.NodeID, backlog BacklogFunc) (Path, error) {
	base, err := p.inner.Route(src, dst, backlog)
	if err != nil {
		return nil, err
	}
	return Resize(p.t, base, p.K, p.Rule), nil
}

// Resize forces a path to carry exactly min(k, available) intermediate
// relays over the given link table: truncating by rule, padding with
// off-route ETX-progress stations. It is the sizing step of SizedPolicy,
// exposed so hand-declared routes can be sized without recomputation.
func Resize(t *Table, base Path, k int, rule SizingRule) Path {
	if k < 0 {
		k = 0
	}
	s := sizer{t: t, k: k, rule: rule}
	switch interior := len(base) - 2; {
	case interior == k:
		return base
	case interior > k:
		return s.truncate(base)
	default:
		return s.pad(base)
	}
}

// sizer carries the resize parameters.
type sizer struct {
	t    *Table
	k    int
	rule SizingRule
}

// truncate keeps k interior relays of a longer path, by rule.
func (p sizer) truncate(base Path) Path {
	k := p.k
	if p.rule == SizeSpaced {
		return base.Limit(k)
	}
	// The interior is ordered src-side first; ETX distance to an endpoint
	// is monotone along a shortest path, so "nearest the destination" is a
	// suffix and "nearest the source" a prefix of the interior.
	out := make(Path, 0, k+2)
	out = append(out, base[0])
	switch p.rule {
	case SizeNearDst:
		out = append(out, base[len(base)-1-k:len(base)-1]...)
	case SizeNearSrc:
		out = append(out, base[1:1+k]...)
	}
	return append(out, base[len(base)-1])
}

// pad inserts off-route relays until the path carries k interior relays or
// no usable candidate remains. Candidates must make strict ETX progress
// (closer to the destination than the source is, closer to the source than
// the destination is) and are tried cheapest detour first; each is spliced
// where its distance-to-destination fits, provided both new adjacent links
// are usable.
func (p sizer) pad(base Path) Path {
	k := p.k
	src, dst := base.Src(), base.Dst()
	fromSrc := p.t.Distances(src, nil)
	toDst := p.t.Distances(dst, nil) // ETX is symmetric: dist from dst = dist to dst
	type candidate struct {
		node   pkt.NodeID
		detour float64
	}
	var cands []candidate
	for v := 0; v < p.t.Stations(); v++ {
		id := pkt.NodeID(v)
		if base.Contains(id) {
			continue
		}
		if math.IsInf(fromSrc[v], 1) || math.IsInf(toDst[v], 1) {
			continue
		}
		if toDst[v] >= toDst[src] || fromSrc[v] >= fromSrc[dst] {
			continue
		}
		cands = append(cands, candidate{node: id, detour: fromSrc[v] + toDst[v]})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].detour != cands[j].detour {
			return cands[i].detour < cands[j].detour
		}
		return cands[i].node < cands[j].node
	})
	out := append(Path(nil), base...)
	for _, c := range cands {
		if len(out)-2 >= k {
			break
		}
		// Splice before the first node at least as close to dst as the
		// candidate, keeping the list sorted by decreasing remaining ETX.
		at := len(out) - 1
		for i := 1; i < len(out); i++ {
			if toDst[out[i]] <= toDst[c.node] {
				at = i
				break
			}
		}
		if math.IsInf(p.t.LinkETX(out[at-1], c.node), 1) ||
			math.IsInf(p.t.LinkETX(c.node, out[at]), 1) {
			continue
		}
		out = append(out, 0)
		copy(out[at+1:], out[at:])
		out[at] = c.node
	}
	return out
}
