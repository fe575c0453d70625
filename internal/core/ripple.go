// Package core implements RIPPLE, the paper's contribution: an opportunistic
// forwarding scheme for interactive traffic built from two mechanisms.
//
// Multi-hop transmission opportunity (mTXOP): after the source wins one DCF
// transmission opportunity, the frame ripples to the destination without
// further contention. The destination acknowledges after SIFS; forwarder of
// rank i (1 = closest to the destination) relays a data frame after sensing
// the channel idle for i·Slot + SIFS, and relays a MAC ACK after
// (i−1)·Slot + SIFS with ranks counted toward the source. Forwarders never
// cache: an overheard frame is relayed at most once, immediately, or
// discarded, and retransmission is end-to-end from the source — so relaying
// can never reorder packets.
//
// Two-way packet aggregation: up to MaxAgg (16) packets, each with its own
// CRC, ride in one frame; the MAC ACK carries a reception bitmap and only
// corrupted packets are retransmitted. Both endpoints aggregate (TCP data
// one way, TCP ACKs the other). The send queue Sq retains unacknowledged
// packets; the receive queue Rq resequences packets broken by partial frame
// corruption before delivery to the upper layer.
package core

import (
	"cmp"

	"ripple/internal/forward"
	"ripple/internal/phys"
	"ripple/internal/pkt"
	"ripple/internal/sim"
)

// Options tunes RIPPLE behaviour. The zero value is the paper's
// configuration: Normalize fills the zero MaxAgg, RqHold and RqCap with the
// paper's values, and each flag's zero keeps the paper's behaviour (Rq on,
// relays deferring, relays carrying only relayed packets).
type Options struct {
	// MaxAgg is the aggregation limit: 0 is the paper's 16, and 1 disables
	// aggregation, which is the "R1" configuration of Figs. 3-4.
	MaxAgg int
	// RqOff turns off the destination resequencing queue (Remark 6).
	RqOff bool
	// RqHold bounds how long Rq withholds out-of-order packets waiting for
	// an end-to-end retransmission to fill a gap (0 is 25 ms). Needed
	// because a packet dropped at the source after the retry limit would
	// otherwise stall the stream forever.
	RqHold sim.Time
	// RqCap bounds the resequencing buffer per stream (0 is 128).
	RqCap int
	// StrictRelay selects how a forwarder's "channel idle for T" relay rule
	// treats unrelated carrier. When true, any sensed carrier during the
	// wait discards the overheard frame — the letter of §III-A. When false
	// (the default, deferral), the forwarder pauses while busy and restarts
	// the T wait at the next idle, discarding only on evidence that a
	// higher-priority station already covered the frame (a decoded relay
	// or ACK of the same mTXOP) or when relayDeferLimit has passed. Without
	// deferral, any background traffic breaks every mTXOP, contradicting
	// the paper's Remark 3 that broken mTXOPs "are likely to be
	// insignificant"; see docs/model.md, "The relay rule".
	StrictRelay bool
	// LocalAggOnRelay lets a forwarder top up a relayed frame with its own
	// queued packets bound for the same destination ("a forwarder
	// aggregates local packets (if the frame is not large enough) so that
	// both multi-hop and local packets are sent in one transmission",
	// Remark 3). Piggybacked packets are acknowledged by the same bitmap
	// ACK; unacknowledged ones return to the local queue.
	LocalAggOnRelay bool
}

// relayDeferLimit bounds how long a deferred relay may wait before the
// frame is discarded (the source's retry supersedes it anyway).
const relayDeferLimit = 2 * sim.Millisecond

// Normalize fills each zero numeric field with the paper's value: MaxAgg
// 16, RqHold 25 ms, RqCap 128.
func (o *Options) Normalize() {
	o.MaxAgg = cmp.Or(o.MaxAgg, 16)
	o.RqHold = cmp.Or(o.RqHold, 25*sim.Millisecond)
	o.RqCap = cmp.Or(o.RqCap, 128)
}

// Check applies the options' range rules, reporting a broken one through
// bad: MaxAgg, RqHold and RqCap must not be negative.
func (o Options) Check(bad func(field string, value any, rule string) error) error {
	const rule = "must not be negative"
	switch {
	case o.MaxAgg < 0:
		return bad("MaxAgg", o.MaxAgg, rule)
	case o.RqHold < 0:
		return bad("RqHold", o.RqHold, rule)
	case o.RqCap < 0:
		return bad("RqCap", o.RqCap, rule)
	}
	return nil
}

// Ripple is the per-station RIPPLE agent: the mTXOP protocol on the shared
// station chassis (one outstanding mTXOP per station; Station.Queue is Sq).
type Ripple struct {
	forward.Station
	opt Options

	// Forwarder relay state: armed idle-timers (paused and resumed around
	// busy periods in deferral mode). Kept as an ordered slice — map
	// iteration order would randomise event scheduling and break run
	// determinism.
	relays   []*pendingRelay
	seenData forward.SeenSet // TxopIDs whose data we already relayed
	seenAck  forward.SeenSet // TxopIDs whose ACK we already relayed

	// Destination-side resequencing (Rq), one per incoming stream, indexed
	// by pkt.Packet.Stream.
	rq []*reseq
	// macSeq assigns MAC-stream sequence numbers to locally originated
	// packets, one counter per outgoing stream, indexed the same way.
	macSeq []int64
	// piggy tracks local packets riding on relayed frames (LocalAggOnRelay),
	// one entry per mTXOP they joined, until the bitmap ACK covers them.
	piggy []piggyEntry

	// Hot-path scratch and free lists: okScratch collects the decoded
	// sub-packets of one reception (valid only within the handler),
	// freeRelays recycles pendingRelay structs (each keeps its timer and
	// packet buffer), freeRq the resequencers and freeReclaims the
	// piggyback reclaim events, from one run of a run arena to the next.
	okScratch    []*pkt.Packet
	freeRelays   sim.FreeList[pendingRelay]
	freeRq       sim.FreeList[reseq]
	freeReclaims sim.FreeList[piggyReclaim]
}

// piggyEntry is the local packets a forwarder added to one mTXOP's relay.
// An entry dropped from piggy leaves its emptied buffer just past the end,
// for the next one.
type piggyEntry struct {
	txop uint64
	pkts []*pkt.Packet
}

var _ forward.Scheme = (*Ripple)(nil)

// Init makes r, in place, the RIPPLE agent of one station: every field zero
// or set from the arguments (opt normalised), except the chassis (see
// forward.Station.Init), the three per-stream and per-mTXOP slices and two
// seen-sets, emptied (the piggyback entries keeping their buffers), the
// scratch buffers, and the relay, resequencer and reclaim records, recalled
// from wherever the last run left them with their timers bound and their
// buffers empty.
func (r *Ripple) Init(env forward.Env, opt Options) {
	opt.Normalize()
	clear(r.rq)
	r.emptyPiggy()
	r.seenData.Reset()
	r.seenAck.Reset()
	r.freeRelays.Recall((*pendingRelay).wipe)
	r.freeRq.Recall((*reseq).wipe)
	r.freeReclaims.Recall((*piggyReclaim).wipe)
	*r = Ripple{Station: r.Station, opt: opt,
		relays: r.relays[:0], seenData: r.seenData, seenAck: r.seenAck,
		rq: r.rq[:0], macSeq: r.macSeq[:0], piggy: r.piggy,
		okScratch: r.okScratch[:0], freeRelays: r.freeRelays, freeRq: r.freeRq,
		freeReclaims: r.freeReclaims}
	r.Station.Init(env, r, r)
}

// Send implements forward.Scheme: a locally originated packet that entered
// Sq is stamped with its MAC-stream sequence number (what Rq orders by).
func (r *Ripple) Send(p *pkt.Packet) bool {
	if !r.Station.Send(p) {
		return false
	}
	s := int(p.Stream)
	r.macSeq = pkt.Extend(r.macSeq, s)
	p.MacSeq = r.macSeq[s]
	r.macSeq[s]++
	return true
}

// Grant implements forward.Protocol: the station won a DCF transmission
// opportunity — launch an mTXOP.
func (r *Ripple) Grant() {
	if len(r.InService) > 0 {
		// Retransmitting: top up the batch with fresh packets of the same
		// stream ("when the source (re)transmits, we allow multiple
		// packets to be aggregated in the (re)transmitted frame").
		if len(r.InService) < r.opt.MaxAgg {
			r.InService = r.Queue.PopNWhereInto(r.InService,
				r.opt.MaxAgg-len(r.InService), func(p *pkt.Packet) bool {
					return p.FlowID == r.SvcFlow && p.Dst == r.SvcDst
				})
		}
	} else {
		head := r.Queue.Peek()
		if head == nil {
			return
		}
		r.SvcFlow, r.SvcSlot = head.FlowID, head.FlowSlot()
		r.SvcDst = head.Dst
		r.InService = r.Queue.PopNWhereInto(r.InService[:0], r.opt.MaxAgg, func(p *pkt.Packet) bool {
			return p.FlowID == head.FlowID && p.Dst == head.Dst
		})
	}
	if len(r.InService) == 0 {
		return
	}
	fwd := r.Routes.FwdList(r.SvcSlot, r.ID, r.SvcDst)
	if len(fwd) == 0 {
		for _, p := range r.InService {
			r.DropNoRoute(p)
		}
		r.InService = r.InService[:0]
		r.MaybeRequest()
		return
	}
	txop := r.StartExchange()
	f := r.Med.NewFrame()
	f.Kind = pkt.Data
	f.Tx, f.Rx = r.ID, pkt.Broadcast
	f.Origin, f.FinalDst = r.ID, r.SvcDst
	f.FwdList = fwd // RouteBook-owned, immutable until the next route update
	f.TxopID = txop
	f.Packets = append(f.Packets, r.InService...)
	f.FlowID = r.SvcFlow
	// Multi-rate extension: pick the rate for the most probable first hop
	// (the forwarder nearest the source); farther forwarders and the
	// destination may then decode opportunistically or not.
	f.RateBps = r.Rate(fwd[len(fwd)-1])
	f.Duration = r.dataDuration(f)
	r.TransmitData(f)
}

func (r *Ripple) dataDuration(f *pkt.Frame) sim.Time {
	perPkt := phys.PerPacketCRCBytes
	if r.opt.MaxAgg == 1 {
		perPkt = 0
	}
	payload := f.PayloadBytes(phys.MACHeaderBytes, perPkt, phys.ForwarderEntryBytes)
	return r.P.DataTimeAt(payload, f.RateBps)
}

func (r *Ripple) ackDuration(fwdEntries int) sim.Time {
	bytes := phys.ACKFrameBytes + phys.BitmapACKBytes + fwdEntries*phys.ForwarderEntryBytes
	return r.P.PHYHdr + sim.Time(float64(bytes*8)/r.P.BasicBps*1e9)
}

// Sent implements forward.Protocol: the source's own data frame ended (a
// relayed frame carries its source's txop, never ours) — arm the end-to-end
// ACK timeout covering the worst-case mTXOP duration.
func (r *Ripple) Sent(f *pkt.Frame) {
	m := len(f.FwdList) - 1 // forwarders (list includes the destination)
	hopGap := r.P.SIFS + sim.Time(m)*r.P.Slot
	dataPath := sim.Time(m) * (hopGap + f.Duration)
	ackPath := sim.Time(m+1) * (hopGap + r.ackDuration(len(f.FwdList)))
	r.AwaitReply(dataPath + ackPath + 4*sim.Microsecond)
}

// Timeout implements forward.Protocol: no end-to-end ACK. Retransmission is
// end to end, so each packet carries its own budget: those transmitted more
// than RetryLimit times are abandoned, the rest retry.
func (r *Ripple) Timeout() {
	r.FailExchange(func(p *pkt.Packet) bool { return p.Retries > r.P.RetryLimit })
}

// Receive implements forward.Protocol.
func (r *Ripple) Receive(f *pkt.Frame, pktOK []bool) {
	switch f.Kind {
	case pkt.Ack:
		r.handleAck(f)
	case pkt.Data:
		r.handleData(f, pktOK)
	}
}

// handleAck covers both roles: the mTXOP source consuming its end-to-end
// MAC ACK, and a forwarder relaying the ACK back toward the source.
func (r *Ripple) handleAck(f *pkt.Frame) {
	if i := r.findPiggy(f.TxopID); i >= 0 {
		// The bitmap covers packets we piggybacked onto this mTXOP's
		// relay; acknowledged ones are done, the rest await reclaim.
		pending := r.piggy[i].pkts
		kept := pending[:0]
		for _, p := range pending {
			if forward.Acked(f.AckedUIDs, p.UID) {
				p.Release() // delivered: our piggyback custody ends
			} else {
				kept = append(kept, p)
			}
		}
		if len(kept) == 0 {
			r.dropPiggy(i)
		} else {
			clear(pending[len(kept):])
			r.piggy[i].pkts = kept
		}
	}
	if r.Exchanging() && f.Origin == r.ID {
		matched := r.Open(f.TxopID)
		kept := r.InService[:0]
		for _, p := range r.InService {
			if forward.Acked(f.AckedUIDs, p.UID) {
				matched = true
				p.Release() // acknowledged end to end: the source's ref ends
				continue
			}
			kept = append(kept, p)
		}
		r.InService = kept
		if matched {
			r.Succeed()
		}
		return
	}

	// Forwarder: relay the MAC ACK toward the source after (i−1)·Slot+SIFS
	// idle, where i ranks stations by proximity to the source.
	myData := f.RankOf(r.ID)
	if myData < 0 || f.Origin == r.ID {
		return
	}
	n := len(f.FwdList)
	myAck := n - myData
	txAck := n // the destination (ACK originator) outranks every relay
	if tr := f.RankOf(f.Tx); tr > 0 {
		txAck = n - tr
	}
	// A decoded ACK proves the destination received the data frame: any
	// pending data relay of this mTXOP is obsolete. A relayed ACK from a
	// station nearer the source also covers our pending ACK relay.
	r.suppressRelay(f.TxopID^dataRelayTag, 0)
	r.suppressRelay(f.TxopID, txAck)
	if myAck >= txAck || r.seenAck.Has(f.TxopID) {
		return
	}
	r.armRelay(f.TxopID, f.TxopID, false, myAck,
		sim.Time(myAck-1)*r.P.Slot+r.P.SIFS, f, nil)
}

// fireAckRelay relays a decoded MAC ACK toward the source.
func (r *Ripple) fireAckRelay(p *pendingRelay) {
	f := p.frame
	r.seenAck.Add(f.TxopID)
	relay := f.Clone()
	relay.Tx = r.ID
	relay.Duration = r.ackDuration(len(relay.FwdList))
	r.C.TxFrames++
	r.C.Relays++
	r.Med.Transmit(relay)
}

// handleData covers the destination (ACK + deliver) and forwarder (relay)
// roles for an opportunistic data frame.
func (r *Ripple) handleData(f *pkt.Frame, pktOK []bool) {
	myRank := f.RankOf(r.ID)
	if myRank < 0 || f.Origin == r.ID {
		return
	}
	// okScratch is valid only within this handler; anything retained
	// (the relay's packet set) is copied at arm time.
	okPkts := r.okScratch[:0]
	for i, p := range f.Packets {
		if i < len(pktOK) && pktOK[i] {
			okPkts = append(okPkts, p)
		}
	}
	r.okScratch = okPkts[:0]
	if len(okPkts) == 0 {
		// Header decodable but every sub-packet corrupted: stay silent so
		// a forwarder that fared better can relay; EIFS applies.
		r.Cont.NoteCorrupted()
		return
	}

	if myRank == 0 {
		// Destination: bitmap-ACK after SIFS, deliver through Rq.
		r.C.RxData++
		ack := r.Med.NewFrame()
		ack.Kind = pkt.Ack
		ack.Tx, ack.Rx = r.ID, f.Origin
		ack.Origin, ack.FinalDst = f.Origin, f.Origin
		ack.FwdList = f.FwdList // RouteBook-owned, never rewritten
		ack.TxopID = f.TxopID
		for _, p := range okPkts {
			ack.AckedUIDs = append(ack.AckedUIDs, p.UID)
		}
		ack.Acker, ack.AckerRank = r.ID, 0
		ack.FlowID = f.FlowID
		ack.Duration = r.ackDuration(len(ack.FwdList))
		r.TransmitAfter(r.P.SIFS, ack)
		for _, p := range okPkts {
			r.deliver(p)
		}
		return
	}

	// Forwarder of rank i: relay after i·Slot + SIFS of idle channel. Only
	// relay frames moving toward the destination (transmitter ranked
	// farther from it than we are), and at most once per mTXOP.
	txRank := len(f.FwdList) // the origin outranks the whole list
	if tr := f.RankOf(f.Tx); tr >= 0 {
		txRank = tr
	}
	// A decoded relay from a station nearer the destination covers any
	// relay we still have pending for this mTXOP.
	r.suppressRelay(f.TxopID^dataRelayTag, txRank)
	if myRank >= txRank || r.seenData.Has(f.TxopID) {
		return
	}
	r.armRelay(f.TxopID^dataRelayTag, f.TxopID, true, myRank,
		sim.Time(myRank)*r.P.Slot+r.P.SIFS, f, okPkts)
}

// fireDataRelay relays the decoded sub-packets of an overheard data frame.
func (r *Ripple) fireDataRelay(p *pendingRelay) {
	f := p.frame
	r.seenData.Add(f.TxopID)
	relay := f.Clone()
	relay.Tx = r.ID
	// The relay carries the sub-packets decoded here, in its own list: the
	// relay frame outlives the pooled pendingRelay.
	relay.Packets = append(relay.Packets[:0], p.pkts...)
	if r.opt.LocalAggOnRelay && len(relay.Packets) < r.opt.MaxAgg {
		r.piggyback(relay)
	}
	relay.Duration = r.dataDuration(relay)
	r.C.TxFrames++
	r.C.Relays++
	r.Med.Transmit(relay)
}

// piggyback tops a relayed frame up with local packets bound for the same
// destination (Remark 3). They are reclaimed on ACK or timeout.
func (r *Ripple) piggyback(relay *pkt.Frame) {
	n := len(relay.Packets)
	relay.Packets = r.Queue.PopNWhereInto(relay.Packets, r.opt.MaxAgg-n, func(p *pkt.Packet) bool {
		return p.Dst == relay.FinalDst
	})
	local := relay.Packets[n:]
	if len(local) == 0 {
		return
	}
	i := r.findPiggy(relay.TxopID)
	if i < 0 {
		i = len(r.piggy)
		if i < cap(r.piggy) {
			r.piggy = r.piggy[:i+1]
		} else {
			r.piggy = append(r.piggy, piggyEntry{})
		}
		r.piggy[i].txop = relay.TxopID
	}
	r.piggy[i].pkts = append(r.piggy[i].pkts, local...)
	// If the mTXOP's ACK never comes back through us, reclaim the packets
	// so they are retransmitted in our own transmission opportunity.
	deadline := 4 * (r.P.SIFS + 5*r.P.Slot + r.dataDuration(relay))
	c := r.freeReclaims.Get()
	if c == nil {
		c = r.freeReclaims.Own(&piggyReclaim{r: r})
	}
	c.txop = relay.TxopID // the relay frame is recycled long before the deadline
	r.Eng.Do(r.Eng.Now()+deadline, c)
}

// piggyReclaim is the event of one piggyback's reclaim deadline, carrying
// its mTXOP. Pooled per station, so a piggyback schedules without
// allocating.
type piggyReclaim struct {
	r    *Ripple
	txop uint64
}

// wipe returns the record to its pooled state: its station and no mTXOP.
func (c *piggyReclaim) wipe() { *c = piggyReclaim{r: c.r} }

func (c *piggyReclaim) Run() {
	r, txop := c.r, c.txop
	c.wipe()
	r.freeReclaims.Put(c)
	r.reclaimPiggy(txop)
}

// findPiggy returns the index of txop's piggyback entry, or -1.
func (r *Ripple) findPiggy(txop uint64) int {
	for i := range r.piggy {
		if r.piggy[i].txop == txop {
			return i
		}
	}
	return -1
}

// reclaimPiggy returns unacknowledged piggybacked packets to the queue.
func (r *Ripple) reclaimPiggy(txop uint64) {
	i := r.findPiggy(txop)
	if i < 0 {
		return
	}
	pending := r.piggy[i].pkts
	for k := len(pending) - 1; k >= 0; k-- {
		r.Queue.PushFront(pending[k])
	}
	r.dropPiggy(i)
	r.MaybeRequest()
}

// dropPiggy removes entry i, leaving its buffer emptied just past the end.
func (r *Ripple) dropPiggy(i int) {
	e := r.piggy[i]
	clear(e.pkts)
	last := len(r.piggy) - 1
	copy(r.piggy[i:], r.piggy[i+1:])
	r.piggy[last] = piggyEntry{pkts: e.pkts[:0]}
	r.piggy = r.piggy[:last]
}

// emptyPiggy drops every entry.
func (r *Ripple) emptyPiggy() {
	for len(r.piggy) > 0 {
		r.dropPiggy(len(r.piggy) - 1)
	}
}

// dataRelayTag disambiguates data-relay timers from ACK-relay timers for
// the same mTXOP in the relays map.
const dataRelayTag = 0x8000000000000000

// pendingRelay is a forwarder's armed (or deferred) relay of one frame.
// Structs are pooled per Ripple agent: each keeps its idle-wait timer and its
// packet buffer, so arming a relay allocates nothing after warm-up. paused
// marks a relay whose wait carrier interrupted (or that was armed during a
// busy period): the next idle period restarts it. pkts holds a reference
// on every retained packet (released when the relay fires or is
// discarded), which keeps the packets alive even if the source abandons
// them while the relay is deferred; frame is held the same way, from
// armRelay to releaseRelay, since the overheard frame leaves the air — and
// would be recycled — before the relay fires.
type pendingRelay struct {
	key      uint64
	txop     uint64
	isData   bool
	rank     int // my relay rank in the frame's direction
	wait     sim.Time
	deadline sim.Time
	frame    *pkt.Frame
	pkts     []*pkt.Packet // decoded sub-packets (data relays only)
	timer    sim.Timer     // the idle wait, bound once to relayTimer
	paused   bool
}

// newRelay pops a recycled pendingRelay or allocates one with its timer
// bound.
func (r *Ripple) newRelay() *pendingRelay {
	if p := r.freeRelays.Get(); p != nil {
		return p
	}
	p := r.freeRelays.Own(&pendingRelay{})
	p.timer.Bind(r.Eng, func() { r.relayTimer(p) })
	return p
}

// wipe returns the relay to its pooled state: every field zero but the
// bound timer and the packet buffer's capacity.
func (p *pendingRelay) wipe() {
	clear(p.pkts)
	*p = pendingRelay{pkts: p.pkts[:0], timer: p.timer}
}

// releaseRelay stops the relay's timer, drops its packet and frame
// references and recycles the struct. The caller must already have removed
// it from r.relays.
func (r *Ripple) releaseRelay(p *pendingRelay) {
	p.timer.Stop()
	for _, pk := range p.pkts {
		pk.Release()
	}
	p.frame.Release()
	p.wipe()
	r.freeRelays.Put(p)
}

// findRelay returns the pending relay with the given key, or nil.
func (r *Ripple) findRelay(key uint64) *pendingRelay {
	for _, p := range r.relays {
		if p.key == key {
			return p
		}
	}
	return nil
}

// dropRelay removes a pending relay from the ordered list.
func (r *Ripple) dropRelay(p *pendingRelay) {
	for i, q := range r.relays {
		if q == p {
			r.relays = append(r.relays[:i], r.relays[i+1:]...)
			return
		}
	}
}

// armRelay schedules an opportunistic relay that fires once the channel has
// been idle for `wait`. In strict mode any sensed carrier discards the
// frame; in deferral mode the wait restarts at the next idle period until
// the defer deadline, and decoded evidence of higher-priority coverage
// (suppressRelay) discards it. okPkts (data relays) is copied into the
// relay's own buffer with a reference per packet.
func (r *Ripple) armRelay(key, txop uint64, isData bool, rank int, wait sim.Time,
	f *pkt.Frame, okPkts []*pkt.Packet) {
	busy := r.Med.CarrierBusy(r.ID)
	if busy && r.opt.StrictRelay {
		r.C.RelayCancels++
		return
	}
	if old := r.findRelay(key); old != nil {
		r.dropRelay(old)
		r.releaseRelay(old)
	}
	p := r.newRelay()
	p.key, p.txop, p.isData, p.rank = key, txop, isData, rank
	p.wait = wait
	p.paused = true // until scheduled
	p.deadline = r.Eng.Now() + relayDeferLimit
	p.frame = f
	f.Hold()
	p.pkts = append(p.pkts, okPkts...)
	for _, pk := range p.pkts {
		pk.Ref()
	}
	r.relays = append(r.relays, p)
	if !busy {
		r.schedule(p)
	}
}

func (r *Ripple) schedule(p *pendingRelay) {
	p.paused = false
	p.timer.Arm(p.wait)
}

// relayTimer is the relay's idle-wait callback.
func (r *Ripple) relayTimer(p *pendingRelay) {
	p.frame.AssertLive("core: relay timer")
	if r.Med.CarrierBusy(r.ID) || r.Med.Transmitting(r.ID) {
		// Raced with a carrier transition in the same instant; the
		// busy handler keeps or discards the pending state.
		if r.opt.StrictRelay {
			r.dropRelay(p)
			r.C.RelayCancels++
			r.releaseRelay(p)
		}
		return
	}
	r.dropRelay(p)
	if p.isData {
		r.fireDataRelay(p)
	} else {
		r.fireAckRelay(p)
	}
	r.releaseRelay(p)
}

// onCarrierBusy pauses (deferral) or discards (strict) every armed relay.
func (r *Ripple) onCarrierBusy() {
	if r.opt.StrictRelay {
		for _, p := range r.relays {
			r.C.RelayCancels++
			r.releaseRelay(p)
		}
		r.relays = r.relays[:0]
		return
	}
	for _, p := range r.relays {
		p.timer.Stop()
		p.paused = true
	}
}

// onCarrierIdle restarts deferred relay waits in arm order, expiring stale
// ones.
func (r *Ripple) onCarrierIdle() {
	if r.opt.StrictRelay {
		return
	}
	now := r.Eng.Now()
	kept := r.relays[:0]
	for _, p := range r.relays {
		if !p.paused {
			kept = append(kept, p)
			continue
		}
		if now >= p.deadline {
			r.C.RelayCancels++
			r.releaseRelay(p)
			continue
		}
		kept = append(kept, p)
		r.schedule(p)
	}
	r.relays = kept
}

// suppressRelay discards pending relays covered by a decoded transmission:
// a data frame or ACK of the same mTXOP from a station ranked ahead of us.
func (r *Ripple) suppressRelay(key uint64, coveringRank int) {
	p := r.findRelay(key)
	if p == nil {
		return
	}
	if coveringRank < p.rank {
		r.dropRelay(p)
		r.C.RelayCancels++
		r.releaseRelay(p)
	}
}

// Carrier implements forward.Protocol: carrier pauses (or, in strict mode,
// discards) pending relays; idle restarts the deferred waits.
func (r *Ripple) Carrier(busy bool) bool {
	if busy {
		r.onCarrierBusy()
	} else {
		r.onCarrierIdle()
	}
	return true
}

// ReleaseCustody implements forward.Protocol: a crash releases every packet
// held beyond Sq and the in-service batch — armed relay buffers, piggybacked
// packets awaiting a bitmap ACK and the resequencing buffers — and withdraws
// their timers. macSeq deliberately survives: restarting stream sequence
// numbers at zero would make the destination's resequencer treat every
// post-recovery packet as a stale duplicate.
func (r *Ripple) ReleaseCustody() uint64 {
	var dropped uint64
	// Armed relays: releaseRelay stops each timer and drops the packet
	// references.
	for _, p := range r.relays {
		dropped += uint64(len(p.pkts))
		r.releaseRelay(p)
	}
	r.relays = r.relays[:0]
	// Piggybacked custody, in the order it was taken; the reclaim events
	// find no entry and return.
	for _, e := range r.piggy {
		for _, p := range e.pkts {
			dropped++
			p.Release()
		}
	}
	r.emptyPiggy()
	// Destination-side resequencing buffers, in stream order.
	for s, q := range r.rq {
		if q == nil {
			continue
		}
		q.hold.Stop()
		for _, p := range q.buf {
			dropped++
			p.Release()
		}
		q.wipe()
		r.freeRq.Put(q)
		r.rq[s] = nil
	}
	// Duplicate-suppression memory dies with the station.
	r.seenData.Reset()
	r.seenAck.Reset()
	return dropped
}
