package routing

import (
	"ripple/internal/pkt"
	"ripple/internal/radio"
)

// GeoPolicy selects forwarders by greedy geographic progress (Li et al.,
// Geographical and Topology Control based Opportunistic Routing): from
// each hop, the next relay is the usable neighbor geographically closest
// to the destination, provided it makes strict progress. Under mobility
// this is the position-aware policy family the epoch-world machinery
// exists for — it needs no global recomputation when stations move, only
// fresh positions, and network rebuilds it each epoch over that epoch's
// table and geometry.
//
// Greedy forwarding stalls in a "void" (a local minimum whose neighbors
// all sit further from the destination). Recovery follows the survey's
// hybrid convention: splice the minimum-ETX path from the stall point,
// or — if the splice would revisit a node already on the greedy prefix —
// abandon greed and return the plain ETX shortest path. A destination
// unreachable over usable links therefore errors exactly when ETX
// routing errors (ErrNoRoute).
type GeoPolicy struct {
	t *Table
	// pos is indexed by station ID; read-only (it aliases the link plan's
	// immutable positions).
	pos []radio.Pos
}

// NewGeoPolicy wraps a link table and the matching station positions as
// the greedy geographic-progress policy. len(pos) must cover every
// station of the table.
func NewGeoPolicy(t *Table, pos []radio.Pos) *GeoPolicy {
	return &GeoPolicy{t: t, pos: pos}
}

// Name implements Policy.
func (p *GeoPolicy) Name() string { return "geo" }

// Dynamic implements Policy: positions change per epoch world, not per
// backlog sample, so in-run recomputation buys nothing.
func (p *GeoPolicy) Dynamic() bool { return false }

// Route implements Policy.
func (p *GeoPolicy) Route(src, dst pkt.NodeID, _ BacklogFunc) (Path, error) {
	path := Path{src}
	target := p.pos[dst]
	cur := src
	for cur != dst {
		bestD := radio.Dist(p.pos[cur], target)
		best := pkt.NodeID(-1)
		p.t.EachNeighbor(cur, func(v pkt.NodeID, _ float64) {
			// Strict progress with a strict < keeps termination trivial
			// (distance-to-dst decreases every hop) and breaks exact ties
			// toward the lowest ID, which EachNeighbor visits first.
			if d := radio.Dist(p.pos[v], target); d < bestD {
				bestD, best = d, v
			}
		})
		if best < 0 {
			return p.recover(path, cur, dst)
		}
		cur = best
		path = append(path, cur)
	}
	return path, nil
}

// recover handles a greedy stall at cur: splice the ETX shortest path to
// dst onto the greedy prefix, falling back to the plain ETX route from
// src when the splice would revisit a prefix node.
func (p *GeoPolicy) recover(prefix Path, cur, dst pkt.NodeID) (Path, error) {
	rest, err := p.t.ShortestPath(cur, dst)
	if err != nil {
		// Greedy only walks usable links, so cur shares src's component
		// and an unreachable dst is unreachable from src too.
		return nil, err
	}
	out := append(append(Path(nil), prefix...), rest[1:]...)
	if out.Validate() == nil {
		return out, nil
	}
	return p.t.ShortestPath(prefix.Src(), dst)
}
