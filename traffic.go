package ripple

import (
	"ripple/internal/network"
	"ripple/internal/traffic"
	"ripple/internal/transport"
)

// TrafficSpec configures a flow's workload. The implementations are the
// traffic model structs FTP, Web, VoIP and CBR; their zero values select
// the paper's parameters — each zero field the paper's value, filled by the
// internal model's own Normalize — and every knob the internal models
// expose is a public field, so sweep-style experiments can vary codec
// cadence, Pareto shape, CBR rate or TCP windows per flow.
type TrafficSpec interface {
	// applyTo writes the spec into the flow; network.Validate checks it.
	applyTo(f *network.FlowSpec)
}

// TCPParams tunes the TCP model of an FTP or Web flow. Zero fields keep
// the paper's defaults (1000-byte MSS, 42-packet receiver window, NewReno
// fast retransmit at 3 dupacks). Its fields are transport.TCPConfig's, one
// for one.
type TCPParams struct {
	MSS         int     // data packet payload bytes
	AckBytes    int     // ACK packet bytes
	InitialCwnd float64 // packets
	MaxCwnd     float64 // receiver window, packets
	SSThresh    float64 // initial slow-start threshold, packets
	DupThresh   int     // dupacks triggering fast retransmit
	RTOMin      Time
	RTOInit     Time
	RTOMax      Time
}

// toInternal returns the params as a normalised TCP config, or nil when
// every field is zero (use the scenario-wide default config).
func (p TCPParams) toInternal() *transport.TCPConfig {
	if p == (TCPParams{}) {
		return nil
	}
	c := transport.TCPConfig(p)
	c.Normalize()
	return &c
}

// FTP is a long-lived backlogged TCP transfer (§IV-A).
type FTP struct {
	// TCP overrides the flow's TCP model (zero = paper defaults).
	TCP TCPParams
}

func (t FTP) applyTo(f *network.FlowSpec) {
	f.Kind = network.FTP
	f.TCP = t.TCP.toInternal()
}

// Web is the ON/OFF short-transfer TCP workload (§IV-D): transfer sizes
// follow a Pareto distribution, OFF (reading) periods are exponential.
type Web struct {
	// MeanTransferBytes is the Pareto mean transfer size (default 80 KB).
	MeanTransferBytes float64
	// ParetoShape is the Pareto tail index; must exceed 1 for the mean to
	// exist (default 1.5).
	ParetoShape float64
	// MeanOffTime is the mean think time between transfers (default 1 s).
	MeanOffTime Time
	// TCP overrides the flow's TCP model (zero = paper defaults).
	TCP TCPParams
}

func (t Web) applyTo(f *network.FlowSpec) {
	c := traffic.WebConfig{MeanTransferBytes: t.MeanTransferBytes, ParetoShape: t.ParetoShape, OffMean: t.MeanOffTime}
	c.Normalize()
	f.Kind = network.Web
	f.Web = &c
	f.TCP = t.TCP.toInternal()
}

// VoIP is the on-off voice stream (§IV-E), scored with the paper's
// R-factor → Mean Opinion Score model.
type VoIP struct {
	// BitrateKbps is the codec rate during talkspurts (default 96).
	BitrateKbps float64
	// PacketInterval is the packetisation cadence (default 20 ms).
	PacketInterval Time
	// MeanOnTime and MeanOffTime are the exponential talkspurt and silence
	// durations (default 1.5 s each).
	MeanOnTime  Time
	MeanOffTime Time
	// DelayBudget is the one-way delay a packet may spend in flight before
	// it counts as lost for MoS purposes (default 52 ms).
	DelayBudget Time
}

func (t VoIP) applyTo(f *network.FlowSpec) {
	c := transport.VoIPConfig{BitsPerSecond: t.BitrateKbps * 1e3, PacketInterval: t.PacketInterval,
		OnMean: t.MeanOnTime, OffMean: t.MeanOffTime, DelayBudget: t.DelayBudget}
	c.Normalize()
	f.Kind = network.VoIPTraffic
	f.VoIP = &c
}

// CBR is a constant-bit-rate datagram stream.
type CBR struct {
	// Interval is the emission interval; 0 keeps the source saturated
	// (backlogged), the v1 behaviour.
	Interval Time
	// PacketSize is the payload in bytes (default: the PHY packet size,
	// 1000 bytes).
	PacketSize int
}

func (t CBR) applyTo(f *network.FlowSpec) {
	f.Kind = network.CBRTraffic
	f.CBRInterval = t.Interval
	f.CBRPacketBytes = t.PacketSize
}
