package forward

import (
	"ripple/internal/mac"
	"ripple/internal/pkt"
	"ripple/internal/sim"
)

// Protocol is the part of a station that differs between schemes: the frame
// exchange it runs once the station has won the channel, and what it does
// with the frames it hears. A Station calls it only while the station is up.
type Protocol interface {
	// Grant: the contender won a transmission opportunity.
	Grant()
	// Sent: a frame of the station's own open exchange left the air.
	Sent(f *pkt.Frame)
	// Receive: a frame was decoded; pktOK flags its intact sub-packets and
	// must not be retained.
	Receive(f *pkt.Frame, pktOK []bool)
	// Carrier: sensed carrier turned busy or idle. It runs before the
	// contender hears of it and reports whether the contender should (a set
	// NAV holds the contender frozen through a physical idle).
	Carrier(busy bool) bool
	// Timeout: the timer armed by AwaitReply ran out with the exchange open.
	Timeout()
	// ReleaseCustody: the station crashed. Release every packet reference
	// and timer the protocol holds beyond the queue and the in-service batch,
	// and return the number of references released.
	ReleaseCustody() uint64
}

// Station is the 802.11 station every scheme is built on — the chassis. It
// owns, once, everything that is not exchange protocol: the interface queue
// and DCF contender, the bookkeeping of the one exchange a station may have
// open (in-service batch, attempt count, txop numbering, reply timer), the
// crashed state with every guard that goes with it, and a pool of delayed
// transmissions. A scheme embeds a Station by value, calls Init with itself
// as the Protocol, and thereby implements Scheme; a concern that cuts across
// schemes (a counter, a lifecycle stamp, an audit tap) belongs here.
//
// Init may be called again on a Station where it stands — the agent slabs of
// a run arena are — with the same Protocol and an Env on the same engine,
// Reset since: see Init for what the chassis keeps.
type Station struct {
	Env
	Queue mac.Queue // packets accepted but not yet in service
	Cont  mac.Contender
	proto Protocol

	// The open (or next) exchange. InService is the batch being transmitted
	// until acknowledged or abandoned; SvcFlow and SvcDst name the flow and
	// end-to-end direction its failures and successes are attributed to, and
	// SvcSlot is that flow's slot in the route book; Attempts counts its
	// consecutive failures.
	InService  []*pkt.Packet
	SvcFlow    int
	SvcSlot    int
	SvcDst     pkt.NodeID
	Attempts   int
	exchanging bool
	curTxop    uint64
	txopSeq    uint64
	timer      sim.Timer // the reply timer, armed by AwaitReply

	freeTx sim.FreeList[delayedTx]

	// down marks the station crashed (fault injection): every MAC upcall
	// and local send is ignored until Recover.
	down bool
}

// Init wires the chassis for one station running protocol p: every field
// zero or set from env, except the capacity a chassis initialised before
// keeps — the queue's ring, the in-service buffer, the delayed-transmission
// records (recalled from the events that held them) and the timers, its own
// and the contender's, whose callbacks are bound to this address. grant is
// p again, as the contender's mac.Granter, converted by the caller from the
// scheme's own type: converting the Protocol instead would be an
// interface-to-interface conversion, whose runtime type cache is built, on
// one call in a thousand or so, by an allocation — in whichever run that
// call falls.
func (s *Station) Init(env Env, p Protocol, grant mac.Granter) {
	s.freeTx.Recall((*delayedTx).wipe)
	if !s.timer.Bound() {
		s.timer.Bind(env.Eng, s.expire)
	}
	*s = Station{Env: env, proto: p, Queue: s.Queue, Cont: s.Cont,
		InService: s.InService[:0], timer: s.timer, freeTx: s.freeTx}
	s.Queue.Init(env.P.QueueLimit)
	if env.Audit != nil { // the queue is tapped only under deep audit
		s.Queue.SetAudit(env.Audit.RegisterQueue(int(env.ID), env.P.QueueLimit, s.Queue.Len))
	}
	s.Cont.Init(env.Eng, env.P, env.RNG, grant)
}

// Send implements Scheme.
func (s *Station) Send(p *pkt.Packet) bool {
	if s.down {
		s.C.CrashDrops++
		p.Release() // station is crashed: terminal drop point
		return false
	}
	if s.Routes.Unreachable(p.FlowSlot()) {
		// The destination is known unreachable this epoch: drop at the
		// source instead of burning airtime on doomed retries.
		s.DropNoRoute(p)
		return false
	}
	if !s.Enqueue(p) {
		p.Release() // queue full: terminal drop point for the sender's ref
		return false
	}
	s.MaybeRequest()
	return true
}

// Enqueue appends p to the interface queue, counting the drop when the
// queue is full. The caller owns the reference either way.
func (s *Station) Enqueue(p *pkt.Packet) bool {
	if !s.Queue.Push(p) {
		s.C.QueueDrops++
		return false
	}
	return true
}

// DropNoRoute is the terminal drop of a packet the route book has no way
// forward for: typed unreachable when faults cut the destination off, a
// plain MAC drop otherwise (a route update left the packet stranded here).
func (s *Station) DropNoRoute(p *pkt.Packet) {
	if s.Routes.Unreachable(p.FlowSlot()) {
		s.C.Unreachable++
		s.Routes.NoteUnreachableDrop(p.FlowSlot())
	} else {
		s.C.MACDrops++
	}
	p.Release()
}

// QueueLen implements Scheme.
func (s *Station) QueueLen() int { return s.Queue.Len() + len(s.InService) }

// MaybeRequest asks for a transmission opportunity when there is something
// to send and no exchange is open.
func (s *Station) MaybeRequest() {
	if s.exchanging || (len(s.InService) == 0 && s.Queue.Len() == 0) {
		return
	}
	s.Cont.Request()
}

// Exchanging reports whether an exchange is open.
func (s *Station) Exchanging() bool { return s.exchanging }

// Open reports whether txop names the station's open exchange.
func (s *Station) Open(txop uint64) bool { return s.exchanging && txop == s.curTxop }

// StartExchange opens an exchange over the in-service batch and returns its
// txop id: every packet is charged one transmission, and a retransmission
// counts as a retry.
func (s *Station) StartExchange() uint64 {
	s.txopSeq++
	s.curTxop = uint64(s.ID)<<32 | s.txopSeq
	s.exchanging = true
	for _, p := range s.InService {
		p.Retries++
	}
	if s.Attempts > 0 {
		s.C.Retries++
	}
	return s.curTxop
}

// TransmitData puts a data frame on the air — which takes over the caller's
// reference on it — and counts it.
func (s *Station) TransmitData(f *pkt.Frame) {
	s.C.TxFrames++
	s.C.TxData++
	s.C.TxPackets += uint64(len(f.Packets))
	s.Med.Transmit(f)
}

// AwaitReply arms the exchange's reply timer: Protocol.Timeout runs after d
// unless CancelReply, Succeed or a crash comes first. The timer must have
// fired or been stopped: an exchange never waits for two replies at once.
func (s *Station) AwaitReply(d sim.Time) {
	if s.timer.Armed() {
		panic("forward: reply timer re-armed while still pending")
	}
	s.timer.Arm(d)
}

// CancelReply withdraws the reply timer (the awaited frame arrived).
func (s *Station) CancelReply() { s.timer.Stop() }

func (s *Station) expire() {
	if s.exchanging {
		s.proto.Timeout()
	}
}

// Succeed closes the exchange as acknowledged. The protocol has already
// released the acknowledged packets from InService; what remains, if
// anything, goes out in the next exchange with a fresh retry budget.
func (s *Station) Succeed() {
	s.timer.Stop()
	s.exchanging = false
	s.Attempts = 0
	s.Routes.NoteTxSuccess(s.SvcSlot, s.ID)
	s.Cont.Success()
	s.MaybeRequest()
}

// FailExchange closes the exchange as failed: in-service packets the
// protocol's rule declares expired are abandoned, the rest back off and
// retry. Only abandonment — never a single timeout, which is routine on a
// lossy channel (relays often carry the packet even when the sender hears
// no ACK) — feeds forwarder blacklisting, because a dead preferred
// forwarder exhausts the retry budget on every packet. NoteTxFailure is a
// no-op unless RouteBook.EnableFailureDetection was called.
func (s *Station) FailExchange(expired func(*pkt.Packet) bool) {
	s.exchanging = false
	s.Attempts++
	s.C.AckTimeouts++
	kept := s.InService[:0]
	for _, p := range s.InService {
		if expired(p) {
			s.C.MACDrops++
			p.Release() // abandoned by the sender: terminal drop point
			continue
		}
		kept = append(kept, p)
	}
	if len(kept) < len(s.InService) {
		s.Routes.NoteTxFailure(s.SvcSlot, s.ID, s.SvcDst)
	}
	s.InService = kept
	if len(kept) == 0 {
		s.Attempts = 0
		s.Cont.Success() // CW resets after a drop per 802.11
	} else {
		s.Cont.Failure()
	}
	s.MaybeRequest()
}

// BudgetSpent is the expiry rule of per-hop exchanges: the whole batch is
// abandoned once the exchange has failed more than RetryLimit times.
func (s *Station) BudgetSpent(*pkt.Packet) bool { return s.Attempts > s.P.RetryLimit }

// delayedTx transmits a frame after a fixed delay unless the station is
// down or mid-transmission by then (pathological overlap: skip, the peer
// times out). A data frame belongs to the station's own exchange — the
// post-CTS data of an RTS handshake — and is also skipped when that
// exchange was abandoned meanwhile. It owns the creator's reference on its
// frame: transmitting passes it to the medium, skipping releases it. Pooled
// per station so SIFS-spaced ACK and RTS/CTS schedules allocate nothing.
type delayedTx struct {
	s *Station
	f *pkt.Frame
}

// wipe returns the record to its pooled state: its station and no frame.
func (a *delayedTx) wipe() { *a = delayedTx{s: a.s} }

func (a *delayedTx) Run() {
	s, f := a.s, a.f
	a.wipe()
	s.freeTx.Put(a)
	switch {
	case s.down || s.Med.Transmitting(s.ID):
		f.Release()
	case f.Kind != pkt.Data:
		s.C.TxFrames++
		s.Med.Transmit(f)
	case s.exchanging:
		s.TransmitData(f)
	default:
		f.Release()
	}
}

// TransmitAfter schedules f for transmission after d under delayedTx's
// rules, taking over the caller's reference on it.
func (s *Station) TransmitAfter(d sim.Time, f *pkt.Frame) {
	a := s.freeTx.Get()
	if a == nil {
		a = s.freeTx.Own(&delayedTx{s: s})
	}
	a.f = f
	s.Eng.Do(s.Eng.Now()+d, a)
}

// TxDone implements radio.MAC: only the end of a frame of the open exchange
// needs a follow-up (frames sent on a peer's behalf carry the peer's txop).
func (s *Station) TxDone(f *pkt.Frame) {
	if s.down || !s.Open(f.TxopID) {
		return
	}
	s.proto.Sent(f)
}

// FrameReceived implements radio.MAC.
func (s *Station) FrameReceived(f *pkt.Frame, pktOK []bool) {
	if s.down {
		return // reception completed after the crash: the station is gone
	}
	s.proto.Receive(f, pktOK)
}

// FrameCorrupted implements radio.MAC.
func (s *Station) FrameCorrupted() {
	if s.down {
		return
	}
	s.Cont.NoteCorrupted()
}

// ChannelBusy implements radio.MAC.
func (s *Station) ChannelBusy() {
	if s.down {
		return
	}
	if s.proto.Carrier(true) {
		s.Cont.OnBusy()
	}
}

// ChannelIdle implements radio.MAC.
func (s *Station) ChannelIdle() {
	if s.down {
		return
	}
	if s.proto.Carrier(false) {
		s.Cont.OnIdle()
	}
}

// Crash implements Scheme: the station dies. The in-service batch, the
// send queue and whatever the protocol holds privately release their
// packet references so the pool-balance invariant survives the crash, and
// pending timers are withdrawn. Receptions the medium already scheduled
// still run their bookkeeping but the down guards ignore them.
func (s *Station) Crash() {
	if s.down {
		return
	}
	s.down = true
	s.timer.Stop()
	s.exchanging = false
	s.Attempts = 0
	dropped := uint64(len(s.InService))
	for _, p := range s.InService {
		p.Release()
	}
	s.InService = s.InService[:0]
	for p := s.Queue.Pop(); p != nil; p = s.Queue.Pop() {
		dropped++
		p.Release()
	}
	dropped += s.proto.ReleaseCustody()
	s.Cont.Cancel()
	s.C.CrashDrops += dropped
}

// Recover implements Scheme: reboot with empty MAC state and realign the
// contender with the medium's current carrier view (busy transitions
// during the outage were dropped by the down guards).
func (s *Station) Recover() {
	if !s.down {
		return
	}
	s.down = false
	if s.Med.CarrierBusy(s.ID) {
		s.Cont.OnBusy()
	} else {
		s.Cont.OnIdle()
	}
	s.MaybeRequest()
}
