// Package stats collects per-flow and per-run metrics: goodput, delay,
// reordering, loss, and the VoIP R-factor / Mean Opinion Score model the
// paper uses for Table III.
package stats

import "ripple/internal/sim"

// Flow accumulates receiver-side metrics for one flow.
type Flow struct {
	ID int

	// AppBytes counts bytes delivered in order to the application (TCP
	// goodput) or received bytes (datagram flows).
	AppBytes int64
	// PktsDelivered counts packets handed to the transport endpoint.
	PktsDelivered int64
	// Reordered counts deliveries whose sequence number is lower than a
	// previously delivered one (the paper's "out of order" metric).
	Reordered int64
	// Duplicates counts repeated deliveries suppressed by the transport.
	Duplicates int64

	// Delay accounting over delivered packets (creation to delivery): the
	// sum and count, and every delay in a histogram, for its tail.
	DelaySum   sim.Time
	DelayCount int64
	Delay      Hist

	// TransfersCompleted counts finished short transfers (web traffic).
	TransfersCompleted int64

	// VoIP accounting: sent, arrived at all, arrived within the wireless
	// delay budget (52 ms in the paper; later arrivals count as losses).
	VoIPSent    int64
	VoIPArrived int64
	VoIPOnTime  int64

	maxSeqSeen int64
	started    bool
}

// NoteArrival records a packet delivery to the endpoint and updates the
// reorder metric based on its stream sequence number.
func (f *Flow) NoteArrival(seq int64, delay sim.Time) {
	f.PktsDelivered++
	f.DelaySum += delay
	f.DelayCount++
	f.Delay.Add(delay)
	if f.started && seq < f.maxSeqSeen {
		f.Reordered++
	}
	if !f.started || seq > f.maxSeqSeen {
		f.maxSeqSeen = seq
		f.started = true
	}
}

// ThroughputMbps returns application goodput over the given duration.
func (f *Flow) ThroughputMbps(d sim.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(f.AppBytes) * 8 / d.Seconds() / 1e6
}

// MeanDelay returns the average delivery delay.
func (f *Flow) MeanDelay() sim.Time {
	if f.DelayCount == 0 {
		return 0
	}
	return f.DelaySum / sim.Time(f.DelayCount)
}

// ReorderRate returns the fraction of delivered packets that arrived out of
// order.
func (f *Flow) ReorderRate() float64 {
	if f.PktsDelivered == 0 {
		return 0
	}
	return float64(f.Reordered) / float64(f.PktsDelivered)
}

// VoIPLossRate returns the paper's VoIP loss metric: packets missing or
// arriving after the wireless delay budget, as a fraction of packets sent.
func (f *Flow) VoIPLossRate() float64 {
	if f.VoIPSent == 0 {
		return 0
	}
	return 1 - float64(f.VoIPOnTime)/float64(f.VoIPSent)
}
