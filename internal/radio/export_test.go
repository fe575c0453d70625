package radio

import "ripple/internal/pkt"

// NumStations returns the number of stations on the medium.
func (m *Medium) NumStations() int { return len(m.stations) }

// Neighbors returns the station's audible-candidate list (tests and
// diagnostics). With pruning off it is every other station in ID order.
func (m *Medium) Neighbors(id pkt.NodeID) []pkt.NodeID {
	row, _ := m.row(int(id))
	out := make([]pkt.NodeID, len(row))
	for i, l := range row {
		out[i] = pkt.NodeID(l.id)
	}
	return out
}

// Down reports whether a station is currently marked crashed.
func (m *Medium) Down(id pkt.NodeID) bool { return len(m.down) != 0 && m.down[id] }

// MeanDBm returns the mean received power of the a→b link in dBm (0 when
// a == b, matching the dense matrix diagonal), stored link or not; a stored
// link's power is this value.
func (pl *LinkPlan) MeanDBm(a, b int) float64 {
	if a == b {
		return 0
	}
	return pl.cfg.MeanRxPowerDBm(pl.Distance(a, b))
}
