package ripple

import (
	"fmt"

	"ripple/internal/network"
	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/routing"
)

// Route discovery. The paper treats forwarder selection as orthogonal to
// RIPPLE's forwarding ("RIPPLE can easily incorporate any forwarder
// selection schemes", §III-B1) and cites ETX (De Couto et al.) as what
// ExOR/MORE use. These helpers compute ETX routes over a topology using the
// same analytic link model the simulator's radio uses.

// Router computes minimum-ETX paths over a topology.
type Router struct {
	table     *routing.Table
	radio     radio.Config
	positions []radio.Pos
}

// NewRouter builds the ETX link table for a topology under the given
// radio (the zero Radio is DefaultRadio()): the table a simulated world
// over the same stations routes on, so routes are computed over exactly
// the channel the packets will see. It costs O(N·k) for N stations of k
// neighbours each, and it refuses a layout Run would refuse (a non-finite
// coordinate, or stations spread wider than a link plan can span).
func NewRouter(top Topology, r Radio) (*Router, error) {
	rc, err := r.config()
	if err != nil {
		return nil, err
	}
	positions := make([]radio.Pos, len(top.Positions))
	for i, p := range top.Positions {
		positions[i] = radio.Pos{X: p.X, Y: p.Y}
	}
	tab, err := network.LinkTable(rc, positions)
	if err != nil {
		return nil, publicError(err, nil)
	}
	return &Router{table: tab, radio: rc, positions: positions}, nil
}

// Path returns the minimum-ETX path between two stations, usable directly
// as a Flow.Path (and as the forwarder list for opportunistic schemes).
func (r *Router) Path(src, dst NodeID) (Path, error) {
	for _, n := range []NodeID{src, dst} {
		if n < 0 || n >= len(r.positions) {
			return nil, fmt.Errorf("station %d outside topology (%d stations)", n, len(r.positions))
		}
	}
	p, err := r.table.ShortestPath(pkt.NodeID(src), pkt.NodeID(dst))
	if err != nil {
		return nil, err
	}
	return fromPath(p), nil
}

// PathETX returns the summed ETX metric of a path.
func (r *Router) PathETX(p Path) float64 {
	rp := make(routing.Path, len(p))
	for i, n := range p {
		rp[i] = pkt.NodeID(n)
	}
	return r.table.PathETX(rp)
}

// LinkQuality returns the one-way frame delivery probability of a link
// under the router's radio profile.
func (r *Router) LinkQuality(a, b NodeID) float64 {
	return 1 - r.radio.LossProb(radio.Dist(r.positions[a], r.positions[b]))
}
