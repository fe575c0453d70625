// Package trace records per-frame medium events for offline analysis:
// structured JSONL logs and per-station airtime accounting. A Recorder plugs
// into network.Config.Trace.
package trace

import (
	"encoding/json"
	"io"

	"ripple/internal/pkt"
	"ripple/internal/sim"
)

// Event is one recorded medium event.
type Event struct {
	// TimeNs is the simulation time in nanoseconds.
	TimeNs int64 `json:"t_ns"`
	// Kind is "tx" (transmission started), "rx" (decoded) or "corrupt".
	Kind string `json:"kind"`
	// Node is the transmitter for tx events, the receiver otherwise.
	Node int `json:"node"`
	// Frame describes the frame involved.
	Frame FrameInfo `json:"frame"`
}

// FrameInfo is the serialisable subset of a frame.
type FrameInfo struct {
	Kind       string `json:"kind"`
	Tx         int    `json:"tx"`
	Rx         int    `json:"rx,omitempty"`
	Origin     int    `json:"origin"`
	Flow       int    `json:"flow"`
	Txop       uint64 `json:"txop"`
	Packets    int    `json:"packets"`
	Bytes      int    `json:"bytes"`
	DurationNs int64  `json:"duration_ns"`
}

func frameInfo(f *pkt.Frame) FrameInfo {
	bytes := 0
	for _, p := range f.Packets {
		bytes += p.Bytes
	}
	return FrameInfo{
		Kind:       f.Kind.String(),
		Tx:         int(f.Tx),
		Rx:         int(f.Rx),
		Origin:     int(f.Origin),
		Flow:       f.FlowID,
		Txop:       f.TxopID,
		Packets:    len(f.Packets),
		Bytes:      bytes,
		DurationNs: int64(f.Duration),
	}
}

// Recorder accumulates medium events. The zero value records airtime only;
// set W to stream every event. Not safe for concurrent use — use one
// Recorder per run (per engine), like every other per-run component.
type Recorder struct {
	// W, when non-nil, receives one JSON object per line per event.
	W io.Writer

	airtime map[pkt.NodeID]sim.Time
	errW    error
}

// Hook returns the callback to install as network.Config.Trace.
func (r *Recorder) Hook() func(sim.Time, string, pkt.NodeID, *pkt.Frame) {
	return r.record
}

func (r *Recorder) record(at sim.Time, kind string, node pkt.NodeID, f *pkt.Frame) {
	if r.airtime == nil {
		r.airtime = make(map[pkt.NodeID]sim.Time)
	}
	if kind == "tx" {
		r.airtime[node] += f.Duration
	}
	if r.W == nil || r.errW != nil {
		return
	}
	ev := Event{TimeNs: int64(at), Kind: kind, Node: int(node), Frame: frameInfo(f)}
	enc, err := json.Marshal(ev)
	if err == nil {
		_, err = r.W.Write(append(enc, '\n'))
	}
	r.errW = err
}

// Err reports any write error encountered while streaming JSONL.
func (r *Recorder) Err() error { return r.errW }

// Airtime returns the transmitted airtime per station.
func (r *Recorder) Airtime() map[pkt.NodeID]sim.Time {
	out := make(map[pkt.NodeID]sim.Time, len(r.airtime))
	for k, v := range r.airtime {
		out[k] = v
	}
	return out
}

// BusyFraction returns total transmitted airtime across all stations as a
// fraction of the run duration (can exceed 1 with spatial reuse).
func (r *Recorder) BusyFraction(duration sim.Time) float64 {
	if duration <= 0 {
		return 0
	}
	var sum sim.Time
	for _, v := range r.airtime {
		sum += v
	}
	return float64(sum) / float64(duration)
}
