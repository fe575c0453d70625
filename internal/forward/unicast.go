package forward

import (
	"ripple/internal/phys"
	"ripple/internal/pkt"
	"ripple/internal/sim"
)

// Unicast is the predetermined-route family of schemes: each transmission
// has exactly one intended receiver (the next hop), acknowledged per hop.
//
//   - MaxAgg == 1 reproduces plain IEEE 802.11 DCF ("D" in the paper's
//     figures); with a direct source→destination route it is SPR ("S").
//   - MaxAgg > 1 reproduces AFR ("A"): up to MaxAgg packets aggregated into
//     one frame, each protected by its own CRC, with a bitmap ACK and
//     partial (per-packet) retransmission.
type Unicast struct {
	Station
	maxAgg    int
	rtsThresh int // payload bytes above which RTS/CTS protects the exchange; 0 = off

	svcNext  pkt.NodeID // next hop of the in-service batch
	awaitCTS bool
	// dataFrame is the data frame of an RTS/CTS exchange, built at grant and
	// parked here, with its creator's reference, until the CTS arrives.
	dataFrame *pkt.Frame

	// NAV: virtual carrier sense set by overheard RTS/CTS.
	navUntil sim.Time
	navBusy  bool

	rxSeen SeenSet
}

var _ Scheme = (*Unicast)(nil)

// Init makes u, in place, the unicast agent of one station. maxAgg is the
// aggregation limit (1 = plain DCF, 16 = AFR as in the paper). With the
// 802.11 RTS/CTS option (rtsThreshold > 0), data frames whose MAC payload is
// at least rtsThreshold bytes are preceded by an RTS/CTS handshake, and
// overhearing stations honour the carried NAV. Every field is zero or set
// from the arguments, except the chassis (see Station.Init) and the emptied
// seen-set, which keep their capacity.
func (u *Unicast) Init(env Env, maxAgg, rtsThreshold int) {
	if maxAgg < 1 {
		maxAgg = 1
	}
	u.rxSeen.Reset()
	*u = Unicast{Station: u.Station, maxAgg: maxAgg, rtsThresh: rtsThreshold, rxSeen: u.rxSeen}
	u.Station.Init(env, u, u)
}

// Grant implements Protocol: the contender won a transmission opportunity.
func (u *Unicast) Grant() {
	if len(u.InService) == 0 {
		u.buildBatch()
	}
	if len(u.InService) == 0 {
		return // everything expired while contending
	}
	u.transmitBatch()
}

// buildBatch pops up to maxAgg packets sharing the head packet's next hop.
func (u *Unicast) buildBatch() {
	for {
		head := u.Queue.Peek()
		if head == nil {
			return
		}
		next, ok := u.Routes.NextHop(head.FlowSlot(), u.ID, head.Dst)
		if !ok {
			// No route from here: drop and try the next packet.
			u.Queue.Pop()
			u.DropNoRoute(head)
			continue
		}
		u.svcNext = next
		u.SvcFlow, u.SvcSlot = head.FlowID, head.FlowSlot()
		u.SvcDst = head.Dst
		u.InService = u.Queue.PopNWhereInto(u.InService[:0], u.maxAgg, func(p *pkt.Packet) bool {
			nh, ok := u.Routes.NextHop(p.FlowSlot(), u.ID, p.Dst)
			return ok && nh == next
		})
		return
	}
}

func (u *Unicast) transmitBatch() {
	txop := u.StartExchange()
	perPkt := 0
	if u.maxAgg > 1 {
		perPkt = phys.PerPacketCRCBytes
	}
	f := u.Med.NewFrame()
	f.Kind = pkt.Data
	f.Tx, f.Rx = u.ID, u.svcNext
	f.Origin, f.FinalDst = u.ID, u.svcNext
	f.TxopID = txop
	f.Packets = append(f.Packets, u.InService...)
	f.FlowID = u.SvcFlow
	f.RateBps = u.Rate(u.svcNext)
	payload := f.PayloadBytes(phys.MACHeaderBytes, perPkt, 0)
	f.Duration = u.P.DataTimeAt(payload, f.RateBps)
	if u.rtsThresh > 0 && payload >= u.rtsThresh {
		u.dataFrame = f
		u.sendRTS(f)
		return
	}
	u.TransmitData(f)
}

// sendRTS opens the protected exchange: RTS, then CTS from the peer, then
// the data frame. The RTS announces the remaining exchange duration so
// overhearing stations set their NAV.
func (u *Unicast) sendRTS(data *pkt.Frame) {
	p := u.P
	rts := u.Med.NewFrame()
	rts.Kind = pkt.Rts
	rts.Tx, rts.Rx = u.ID, u.svcNext
	rts.Origin, rts.FinalDst = u.ID, u.svcNext
	rts.TxopID = data.TxopID
	rts.FlowID = u.SvcFlow
	rts.Duration = p.RTSTime()
	rts.NavDur = p.SIFS + p.CTSTime() + p.SIFS + data.Duration + p.SIFS + u.ackDuration()
	u.awaitCTS = true
	u.C.TxFrames++
	u.Med.Transmit(rts)
}

// Sent implements Protocol: arm the CTS timeout after our RTS, or the ACK
// timeout after our data frame.
func (u *Unicast) Sent(f *pkt.Frame) {
	switch f.Kind {
	case pkt.Rts:
		if u.awaitCTS {
			u.AwaitReply(u.P.SIFS + u.P.Slot + u.P.CTSTime() + 2*sim.Microsecond)
		}
	case pkt.Data:
		u.AwaitReply(u.P.SIFS + u.P.Slot + u.ackDuration() + 2*sim.Microsecond)
	}
}

func (u *Unicast) ackDuration() sim.Time {
	if u.maxAgg > 1 {
		return u.P.BitmapACKTime()
	}
	return u.P.ACKTime()
}

// Timeout implements Protocol: no CTS, or no ACK. Back off and retry, or
// drop the whole batch past the retry limit.
func (u *Unicast) Timeout() {
	u.awaitCTS = false
	u.dropDataFrame()
	u.FailExchange(u.BudgetSpent)
}

// dropDataFrame gives up on the parked post-CTS data frame, if there is one.
func (u *Unicast) dropDataFrame() {
	if u.dataFrame != nil {
		u.dataFrame.Release()
		u.dataFrame = nil
	}
}

// Receive implements Protocol.
func (u *Unicast) Receive(f *pkt.Frame, pktOK []bool) {
	switch f.Kind {
	case pkt.Ack:
		u.handleAck(f)
	case pkt.Data:
		u.handleData(f, pktOK)
	case pkt.Rts:
		u.handleRts(f)
	case pkt.Cts:
		u.handleCts(f)
	}
}

func (u *Unicast) handleRts(f *pkt.Frame) {
	if f.Rx != u.ID {
		// Overheard: honour the announced exchange duration.
		u.setNAV(u.Eng.Now() + f.NavDur)
		return
	}
	if u.navBusy {
		return // our own NAV forbids responding (802.11 §9.2.5.7)
	}
	p := u.P
	cts := u.Med.NewFrame()
	cts.Kind = pkt.Cts
	cts.Tx, cts.Rx = u.ID, f.Tx
	cts.Origin, cts.FinalDst = u.ID, f.Tx
	cts.TxopID = f.TxopID
	cts.FlowID = f.FlowID
	cts.Duration = p.CTSTime()
	cts.NavDur = f.NavDur - p.SIFS - p.CTSTime()
	u.TransmitAfter(p.SIFS, cts)
}

func (u *Unicast) handleCts(f *pkt.Frame) {
	if f.Rx != u.ID {
		u.setNAV(u.Eng.Now() + f.NavDur)
		return
	}
	if !u.awaitCTS || !u.Open(f.TxopID) {
		return
	}
	u.CancelReply()
	u.awaitCTS = false
	data := u.dataFrame
	u.dataFrame = nil
	u.TransmitAfter(u.P.SIFS, data)
}

// setNAV extends the virtual carrier sense; the contender treats the NAV
// period as busy even when the physical channel is idle.
func (u *Unicast) setNAV(until sim.Time) {
	if until <= u.navUntil {
		return
	}
	u.navUntil = until
	if !u.navBusy {
		u.navBusy = true
		u.Cont.OnBusy()
	}
	u.Eng.Do(until, (*navExpiry)(u))
}

// navExpiry is a Unicast seen as the sim.Action of its NAV's expiry: a
// pointer conversion, so scheduling one allocates nothing.
type navExpiry Unicast

func (n *navExpiry) Run() { (*Unicast)(n).navExpire() }

func (u *Unicast) navExpire() {
	if !u.navBusy || u.Eng.Now() < u.navUntil {
		return
	}
	u.navBusy = false
	if !u.Med.CarrierBusy(u.ID) {
		u.Cont.OnIdle()
	}
}

// Carrier implements Protocol: a set NAV keeps the contender frozen even
// when the physical channel goes quiet.
func (u *Unicast) Carrier(busy bool) bool { return busy || !u.navBusy }

func (u *Unicast) handleAck(f *pkt.Frame) {
	if f.Rx != u.ID || !u.Open(f.TxopID) {
		return
	}
	remaining := u.InService[:0]
	for _, p := range u.InService {
		if Acked(f.AckedUIDs, p.UID) {
			p.Release() // the next hop (or endpoint) holds it now
			continue
		}
		if p.Retries > u.P.RetryLimit {
			u.C.MACDrops++
			p.Release()
			continue
		}
		remaining = append(remaining, p)
	}
	u.InService = remaining
	u.Succeed()
}

func (u *Unicast) handleData(f *pkt.Frame, pktOK []bool) {
	if f.Rx != u.ID {
		return
	}
	u.C.RxData++
	if u.maxAgg == 1 && (len(pktOK) == 0 || !pktOK[0]) {
		// Plain DCF: the FCS covers the whole frame; a corrupted body is a
		// corrupted frame — no ACK, and EIFS applies.
		u.Cont.NoteCorrupted()
		return
	}
	// Acknowledge after SIFS. The bitmap lists packets that passed CRC.
	ack := u.Med.NewFrame()
	ack.Kind = pkt.Ack
	ack.Tx, ack.Rx = u.ID, f.Tx
	ack.Origin, ack.FinalDst = u.ID, f.Tx
	ack.TxopID = f.TxopID
	for i, p := range f.Packets {
		if i < len(pktOK) && pktOK[i] {
			ack.AckedUIDs = append(ack.AckedUIDs, p.UID)
		}
	}
	ack.FlowID = f.FlowID
	ack.Duration = u.ackDuration()
	u.TransmitAfter(u.P.SIFS, ack)
	// Process the successfully received packets.
	for i, p := range f.Packets {
		if i >= len(pktOK) || !pktOK[i] {
			continue
		}
		if u.rxSeen.Seen(p.UID) {
			u.C.Duplicates++
			continue
		}
		if p.Dst == u.ID {
			u.Deliver(p)
			continue
		}
		// Relay toward the destination via our own queue, taking our own
		// reference: the previous hop releases its hold when it processes
		// our ACK.
		if u.Enqueue(p) {
			p.Ref()
		}
	}
	u.MaybeRequest()
}

// ReleaseCustody implements Protocol: a crash abandons the handshake and
// forgets the NAV; the parked post-CTS data frame shares the in-service
// packets and holds no references on them. rxSeen deliberately survives:
// forgetting delivered UIDs would let a hop-by-hop retransmission duplicate
// packets into the upper layer after recovery.
func (u *Unicast) ReleaseCustody() uint64 {
	u.awaitCTS = false
	u.dropDataFrame()
	u.navBusy = false
	u.navUntil = 0
	return 0
}
