// Package pkt defines the units that move through the simulated network:
// upper-layer Packets and MAC-layer Frames (possibly aggregating several
// packets, as in AFR and RIPPLE).
package pkt

import (
	"fmt"

	"ripple/internal/sim"
)

// NodeID identifies a station in the topology. IDs are dense indices.
type NodeID int

// Broadcast is the pseudo-receiver of frames without a single intended
// recipient (opportunistic data frames).
const Broadcast NodeID = -1

// Packet is one upper-layer packet (what the paper calls a "packet", as
// opposed to the MAC "frame" that may carry several of them).
type Packet struct {
	// UID is unique across the whole simulation run; used for duplicate
	// suppression and ACK bookkeeping.
	UID uint64
	// FlowID identifies the end-to-end flow the packet belongs to: the
	// user's label, any unique int, reported in traces and results.
	FlowID int
	// Stream is the run-local slot of the packet's flow and direction,
	// 2·i + dir: i is the flow's index in the run's flow list, dir 0 the
	// source-to-destination direction and 1 the reverse (TCP ACKs). The
	// layers below transport keep per-stream and per-flow state in slices
	// indexed by it (see FlowSlot); nothing indexes by FlowID.
	Stream int32
	// Seq is the flow-local sequence number (0-based, per direction),
	// assigned by the transport layer. Transport retransmissions reuse it.
	Seq int64
	// MacSeq is the MAC-layer stream sequence number assigned when the
	// packet first enters a send queue (Sq). Unlike Seq it is unique per
	// MAC transmission stream — a transport retransmission gets a fresh
	// MacSeq — which is what the RIPPLE resequencing queue (Rq) orders by.
	MacSeq int64
	// Bytes is the upper-layer size (TCP data: 1000, TCP ACK: 40, ...).
	Bytes int
	// Src and Dst are the end-to-end endpoints.
	Src, Dst NodeID
	// Created is when the packet entered the sender's queue (for delay).
	Created sim.Time
	// TCP is the transport header of a TCP packet; datagram packets (VoIP,
	// CBR) leave it zero.
	TCP TCPHeader
	// Retries counts MAC-layer (re)transmissions of this packet so far.
	Retries int

	// pool and refs implement per-run recycling (see Pool): refs counts
	// long-lived holders and the last Release returns the struct to pool.
	// Both are zero for packets created outside a pool, which makes
	// Ref/Release no-ops.
	pool *Pool
	refs int32
	// delivered marks a packet that reached its endpoint, so the final
	// Release can classify it for the pool's conservation counters.
	delivered bool
}

// StreamOf returns the stream slot of direction dir (0 forward, 1 reverse)
// of the flow at index slot.
func StreamOf(slot, dir int) int32 { return int32(2*slot + dir) }

// FlowSlot returns the index of the packet's flow in the run's flow list.
func (p *Packet) FlowSlot() int { return int(p.Stream >> 1) }

// Extend returns s lengthened with zero elements, if need be, so that index
// i is in range: a table indexed by stream or flow slot grows to the
// highest slot it is asked about.
func Extend[T any](s []T, i int) []T {
	if i < len(s) {
		return s
	}
	return append(s, make([]T, i+1-len(s))...)
}

// TCPHeader is what a TCP packet carries besides Seq, its data sequence
// number: whether it is an acknowledgement and, if so, the cumulative
// acknowledgement number (the next sequence number the receiver expects).
type TCPHeader struct {
	IsAck bool
	Ack   int64
}

// MarkDelivered flags the packet as having reached its endpoint. The
// final Release classifies it as delivered rather than dropped in the
// pool's conservation counters (see Pool.Counters). Idempotent; a no-op
// for packets created outside a pool.
func (p *Packet) MarkDelivered() {
	if p.pool != nil {
		p.delivered = true
	}
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt{flow=%d seq=%d %d->%d %dB}", p.FlowID, p.Seq, p.Src, p.Dst, p.Bytes)
}

// FrameKind distinguishes the MAC frame types the schemes exchange.
type FrameKind int

const (
	// Data is a (possibly aggregated) data frame.
	Data FrameKind = iota + 1
	// Ack is a MAC acknowledgement (plain or bitmap).
	Ack
	// Rts is a request-to-send control frame (802.11 RTS/CTS option).
	Rts
	// Cts is a clear-to-send control frame.
	Cts
)

func (k FrameKind) String() string {
	switch k {
	case Data:
		return "DATA"
	case Ack:
		return "ACK"
	case Rts:
		return "RTS"
	case Cts:
		return "CTS"
	default:
		return fmt.Sprintf("FrameKind(%d)", int(k))
	}
}

// Frame is one MAC-to-PHY transmission.
type Frame struct {
	Kind FrameKind
	// Tx is the transmitting station of this emission (for relayed frames,
	// the relay, not the original source).
	Tx NodeID
	// Rx is the intended receiver for unicast exchanges, or Broadcast for
	// opportunistic data frames addressed to a forwarder list.
	Rx NodeID
	// Origin is the station that initiated the transmission opportunity
	// this frame belongs to (the mTXOP source for RIPPLE relays; equals Tx
	// for non-relayed frames).
	Origin NodeID
	// FinalDst is the end-to-end destination of the TXOP (the highest
	// priority "forwarder").
	FinalDst NodeID

	// FwdList is the prioritised forwarder list carried by opportunistic
	// frames, ordered destination-first: FwdList[0] is the final
	// destination, FwdList[1] the forwarder closest to it, and so on up to
	// the source's neighbour. Empty for predetermined schemes.
	FwdList []NodeID

	// TxopID identifies the transmission opportunity (source-assigned);
	// relays preserve it so stations can suppress duplicate relays.
	TxopID uint64

	// Packets are the aggregated upper-layer packets in a Data frame.
	Packets []*Packet

	// AckedUIDs lists the packet UIDs acknowledged by a bitmap Ack frame.
	AckedUIDs []uint64
	// AckerRank is the priority rank, in the forwarder list of the
	// acknowledged data frame, of the station that generated an Ack frame
	// (0 = destination): opportunistic schemes need to distinguish which
	// forwarder acknowledged.
	AckerRank int

	// FlowID tags the frame with the flow whose TXOP this is (stats).
	FlowID int

	// Duration is the airtime, filled by the sender from phys.Params.
	Duration sim.Time

	// RateBps is the PHY data rate of the frame body when the multi-rate
	// extension is active; 0 means the configuration's base data rate.
	// Faster rates shrink Duration but raise the decode threshold.
	RateBps float64

	// NavDur, on RTS/CTS frames, announces how long the remaining exchange
	// will occupy the channel; overhearing stations set their network
	// allocation vector (virtual carrier sense) accordingly.
	NavDur sim.Time

	// air counts the frame's pending PHY completions while it is on the
	// medium (see BeginAir/AirDone): the airtime reference that keeps the
	// frame and its pooled packets alive until every receiver has processed
	// it.
	air int32

	// pool and refs implement per-run recycling (see FramePool). Both are
	// zero for a frame built as a literal, which makes Hold/Release no-ops.
	pool *FramePool
	refs int32
}

// PayloadBytes returns the MAC payload size of a data frame: MAC header,
// forwarder list, and each sub-packet with its per-packet CRC header when
// aggregated. The caller converts this to airtime via phys.Params.
func (f *Frame) PayloadBytes(macHeader, perPktHdr, fwdEntry int) int {
	n := macHeader + len(f.FwdList)*fwdEntry
	for _, p := range f.Packets {
		n += p.Bytes
		if len(f.Packets) > 1 || perPktHdr > 0 {
			n += perPktHdr
		}
	}
	return n
}

// RankOf returns the position of node in the forwarder list (0 = final
// destination, 1 = forwarder closest to it, ...), or -1 if absent.
func (f *Frame) RankOf(node NodeID) int {
	for i, id := range f.FwdList {
		if id == node {
			return i
		}
	}
	return -1
}

// Clone returns a copy suitable for relaying, with the caller holding its
// one reference: drawn from the original's pool, or allocated when the
// original is a literal. The copy owns its Packets and AckedUIDs lists — the
// original may be recycled and refilled while the copy is still on the air —
// and shares FwdList, which belongs to the route book and is never rewritten.
// It is not on the air.
func (f *Frame) Clone() *Frame {
	var g *Frame
	if f.pool != nil {
		g = f.pool.Get()
	} else {
		g = &Frame{}
	}
	packets, acked, refs := g.Packets, g.AckedUIDs, g.refs
	*g = *f // the pool included: the clone's own
	g.refs, g.air = refs, 0
	g.Packets = append(packets[:0], f.Packets...)
	g.AckedUIDs = append(acked[:0], f.AckedUIDs...)
	return g
}
