package forward

import (
	"slices"

	"ripple/internal/pkt"
	"ripple/internal/routing"
)

// Path returns the registered path for the flow at slot (nil if unknown).
func (b *RouteBook) Path(slot int) routing.Path {
	if slot >= len(b.flows) {
		return nil
	}
	return b.flows[slot].path
}

// Blacklisted reports whether sender `from` currently blacklists station
// n for the flow at slot (tests and diagnostics).
func (b *RouteBook) Blacklisted(slot int, from, n pkt.NodeID) bool {
	if slot >= len(b.flows) {
		return false
	}
	fr := &b.flows[slot]
	s := fr.sender(from)
	return s != nil && slices.Contains(fr.path, n) && s.banned(n)
}
