// Package routing provides the route representation (a node path), the
// static Table II routes for the Fig. 1 topology, an ETX link
// table (De Couto et al.) with pluggable-cost Dijkstra over the radio link
// model, and the Policy interface with its implementations: static
// minimum-ETX discovery, ORCD-style congestion-diversity routing that folds
// live queue backlog into the metric, and a forwarder-list sizing wrapper
// that forces routes to K relays.
package routing

import (
	"fmt"

	"ripple/internal/pkt"
)

// Path is an ordered node sequence from a flow's source to its destination.
// It serves both predetermined schemes (hop-by-hop) and opportunistic ones,
// whose forwarder lists forward.RouteBook reads off it.
type Path []pkt.NodeID

// Src returns the first node of the path.
func (p Path) Src() pkt.NodeID { return p[0] }

// Dst returns the last node of the path.
func (p Path) Dst() pkt.NodeID { return p[len(p)-1] }

// Contains reports whether node n appears on the path.
func (p Path) Contains(n pkt.NodeID) bool { return p.indexOf(n) >= 0 }

func (p Path) indexOf(n pkt.NodeID) int {
	for i, id := range p {
		if id == n {
			return i
		}
	}
	return -1
}

// NextHop returns the neighbour of `from` in the direction of `toward`
// (which must be one of the path's endpoints). ok is false if `from` is not
// on the path or already equals `toward`.
func (p Path) NextHop(from, toward pkt.NodeID) (pkt.NodeID, bool) {
	i := p.indexOf(from)
	if i < 0 || from == toward {
		return 0, false
	}
	switch toward {
	case p.Dst():
		if i+1 < len(p) {
			return p[i+1], true
		}
	case p.Src():
		if i > 0 {
			return p[i-1], true
		}
	}
	return 0, false
}

// Limit caps the number of intermediate forwarders at max, keeping evenly
// spaced interior nodes. Endpoints are preserved; max ≤ 0 keeps only the
// endpoints. (The paper's "maximum number of forwarders" counts the
// destination too — RouteBook applies that convention.)
func (p Path) Limit(max int) Path {
	if len(p)-2 <= max || len(p) < 3 {
		return p
	}
	return p.AppendLimit(make(Path, 0, max+2), max)
}

// AppendLimit appends to dst the path Limit returns for a path of more
// than max interior nodes, for a caller that keeps its own array.
func (p Path) AppendLimit(dst Path, max int) Path {
	interior := len(p) - 2
	dst = append(dst, p[0])
	switch {
	case max == 1:
		dst = append(dst, p[(len(p)-1)/2])
	case max > 1:
		for k := 1; k <= max; k++ {
			idx := 1 + (k-1)*(interior-1)/(max-1)
			dst = append(dst, p[idx])
		}
	}
	return append(dst, p[len(p)-1])
}

// Validate checks structural invariants: at least two nodes, no repeats.
func (p Path) Validate() error {
	if len(p) < 2 {
		return fmt.Errorf("routing: path %v too short", p)
	}
	seen := make(map[pkt.NodeID]bool, len(p))
	for _, id := range p {
		if seen[id] {
			return fmt.Errorf("routing: path %v repeats node %d", p, id)
		}
		seen[id] = true
	}
	return nil
}
