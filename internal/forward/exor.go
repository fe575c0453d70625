package forward

import (
	"slices"

	"ripple/internal/phys"
	"ripple/internal/pkt"
	"ripple/internal/sim"
)

// ExOR is the opportunistic single-packet family of §II: the source
// broadcasts a data packet with a prioritised forwarder list, the stations
// that decoded it acknowledge on a schedule keyed by their rank, and the
// highest-priority receiver takes custody of the packet, caches it, and
// contends to forward it. Caching at forwarders plus independent contention
// is what produces the ~26% packet reordering the paper measures. The two
// variants differ only in their ACK schedule (see ackSchedule).
type ExOR struct {
	Station
	acks  ackSchedule
	heard bool // some forwarder acknowledged the open exchange

	rxSeen SeenSet   // packet UIDs delivered or taken into custody
	pend   []*exorRx // receptions awaiting their custody decision, in arrival order
	freeRx sim.FreeList[exorRx]
}

// ackSchedule is everything an ExOR variant decides.
type ackSchedule interface {
	// collect is how long the source listens, after its data frame to n
	// forwarders ends, before judging the exchange.
	collect(p phys.Params, n int) sim.Time
	// receive runs when rx.rank decoded a data frame: it schedules when that
	// rank acknowledges and, with x.decideAfter, when it decides custody — or
	// decides at once and recycles rx.
	receive(x *ExOR, rx *exorRx)
	// decide is the custody decision of a reception still held when its
	// moment comes.
	decide(x *ExOR, rx *exorRx)
	// carrier is what sensed carrier does to receptions still pending.
	carrier(x *ExOR)
}

// exorRx is one decoded data frame at a forwarder-list member: what its ACK
// and custody decision need of the frame, copied out of it — the frame has
// left the air and been recycled by the time they run. It is also the pooled
// event of that decision (see decideAfter).
type exorRx struct {
	x      *ExOR
	txop   uint64
	tx     pkt.NodeID // the frame's transmitter, whom the ACK answers
	flow   int
	nFwd   int // length of the frame's forwarder list
	packet *pkt.Packet
	rank   int
	// covered: a higher-priority station acknowledged (or, under the
	// compressed schedule, carrier suggests one did), so custody is not ours.
	covered bool
}

var _ Scheme = (*ExOR)(nil)

// Init makes x, in place, the per-station agent of the early ExOR (Biswas &
// Morris, HotNets 2003): every forwarder that received the packet transmits
// a MAC ACK in its own reserved, sequential slot, and slots of silent
// "shadowed" ACKs are still waited out. With compressed acknowledgements it
// is MCExOR's (Zubow et al., European Wireless 2007): a forwarder of rank i
// waits i+1 SIFS intervals and transmits a MAC ACK only if it detected no
// ACK (no carrier) during its wait, so exactly one ACK is sent, by the best
// actual receiver. Every field is zero or set from the arguments, except the
// chassis (see Station.Init), the emptied seen-set and pending list, and the
// reception records, recalled from the events that held them.
func (x *ExOR) Init(env Env, compressed bool) {
	var acks ackSchedule = sequentialAcks{}
	if compressed {
		acks = compressedAcks{}
	}
	clear(x.pend)
	x.rxSeen.Reset()
	x.freeRx.Recall((*exorRx).wipe)
	*x = ExOR{Station: x.Station, acks: acks, rxSeen: x.rxSeen, pend: x.pend[:0], freeRx: x.freeRx}
	x.Station.Init(env, x, x)
}

// Grant implements Protocol: broadcast the custody packet (or the next
// queued one, with a fresh retry budget) to its forwarder list.
func (x *ExOR) Grant() {
	if len(x.InService) == 0 {
		p := x.Queue.Pop()
		if p == nil {
			return
		}
		x.InService = append(x.InService, p)
		x.SvcFlow, x.SvcSlot, x.SvcDst = p.FlowID, p.FlowSlot(), p.Dst
		x.Attempts = 0
	}
	cur := x.InService[0]
	fwd := x.Routes.FwdList(cur.FlowSlot(), x.ID, cur.Dst)
	if len(fwd) == 0 {
		x.DropNoRoute(cur)
		x.InService = x.InService[:0]
		x.MaybeRequest()
		return
	}
	x.heard = false
	txop := x.StartExchange()
	f := x.Med.NewFrame()
	f.Kind = pkt.Data
	f.Tx, f.Rx = x.ID, pkt.Broadcast
	f.Origin, f.FinalDst = x.ID, cur.Dst
	f.FwdList = fwd // RouteBook-owned, immutable until the next route update
	f.TxopID = txop
	f.Packets = append(f.Packets, cur)
	f.FlowID = cur.FlowID
	f.Duration = x.P.DataTime(f.PayloadBytes(phys.MACHeaderBytes, 0, phys.ForwarderEntryBytes))
	x.TransmitData(f)
}

// Sent implements Protocol: the data frame ended, collect ACKs.
func (x *ExOR) Sent(f *pkt.Frame) { x.AwaitReply(x.acks.collect(x.P, len(f.FwdList))) }

// Timeout implements Protocol: the collection window closed.
func (x *ExOR) Timeout() {
	if !x.heard {
		x.FailExchange(x.BudgetSpent)
		return
	}
	// Custody transferred to a closer station (or delivered): the acker
	// holds its own reference, ours ends here.
	x.InService[0].Release()
	x.InService = x.InService[:0]
	x.Succeed()
}

// Receive implements Protocol.
func (x *ExOR) Receive(f *pkt.Frame, pktOK []bool) {
	switch f.Kind {
	case pkt.Ack:
		// Source collecting ACKs for its in-flight packet.
		if x.Open(f.TxopID) {
			x.heard = true
		}
		// Forwarder overhearing a higher-priority ACK for a pending reception.
		for _, rx := range x.pend {
			if rx.txop == f.TxopID && f.AckerRank < rx.rank {
				rx.covered = true
			}
		}
	case pkt.Data:
		rank := f.RankOf(x.ID)
		if rank < 0 {
			return // not for us
		}
		if len(pktOK) == 0 || !pktOK[0] {
			x.Cont.NoteCorrupted()
			return
		}
		x.C.RxData++
		rx := x.freeRx.Get()
		if rx == nil {
			rx = x.freeRx.Own(&exorRx{x: x})
		}
		rx.txop, rx.tx, rx.flow, rx.nFwd = f.TxopID, f.Tx, f.FlowID, len(f.FwdList)
		rx.packet, rx.rank = f.Packets[0], rank
		x.acks.receive(x, rx)
	}
}

// wipe returns the record to its pooled state: its agent and nothing else.
func (rx *exorRx) wipe() { *rx = exorRx{x: rx.x} }

// recycle returns a reception record to the pool.
func (x *ExOR) recycle(rx *exorRx) {
	rx.wipe()
	x.freeRx.Put(rx)
}

// decideAfter parks rx (see hold) and schedules its custody decision d from
// now, on the record itself: from here on the record is recycled by its own
// Run and by nothing else. A crash drops the hold, but the event still fires
// and still owns the record — which is what lets unhold tell a released hold
// from a live one by identity.
func (x *ExOR) decideAfter(d sim.Time, rx *exorRx) {
	x.hold(rx)
	x.Eng.Do(x.Eng.Now()+d, rx)
}

// Run implements sim.Action: the custody decision, if the hold is still on.
func (rx *exorRx) Run() {
	x := rx.x
	if x.unhold(rx) {
		x.acks.decide(x, rx)
	}
	x.recycle(rx)
}

// Carrier implements Protocol.
func (x *ExOR) Carrier(busy bool) bool {
	if busy {
		x.acks.carrier(x)
	}
	return true
}

// ack builds the MAC ACK for a reception.
func (x *ExOR) ack(rx *exorRx) *pkt.Frame {
	f := x.Med.NewFrame()
	f.Kind = pkt.Ack
	f.Tx, f.Rx = x.ID, rx.tx
	f.Origin, f.FinalDst = x.ID, rx.tx
	f.TxopID = rx.txop
	f.AckedUIDs = append(f.AckedUIDs, rx.packet.UID)
	f.AckerRank = rx.rank
	f.FlowID = rx.flow
	f.Duration = x.P.ACKTime()
	return f
}

// hold parks a reception until its custody decision, with its own
// reference on the packet (the source may abandon it meanwhile). A station
// holds a few receptions at once, each of its own mTXOP.
func (x *ExOR) hold(rx *exorRx) {
	x.pend = append(x.pend, rx)
	rx.packet.Ref()
}

// unhold ends the wait. It reports false when a crash released the hold
// already: decision events cannot be cancelled, so they check identity —
// which holds because a record stays out of the pool until its event fires.
func (x *ExOR) unhold(rx *exorRx) bool {
	i := slices.Index(x.pend, rx)
	if i < 0 {
		return false
	}
	x.pend = slices.Delete(x.pend, i, i+1)
	return true
}

// takeCustody consumes the caller's reference on the packet: the
// destination delivers it, a forwarder queues it to contend for it — once
// per packet either way.
func (x *ExOR) takeCustody(rx *exorRx) {
	p := rx.packet
	if x.rxSeen.Seen(p.UID) {
		x.C.Duplicates++
		p.Release()
		return
	}
	if rx.rank == 0 {
		x.Deliver(p)
		p.Release() // delivered: terminal point
		return
	}
	if !x.Enqueue(p) {
		p.Release()
		return
	}
	x.MaybeRequest() // custody taken: the caller's ref becomes the queue's
}

// ReleaseCustody implements Protocol: drop the pending receptions, in
// arrival order. Their decision events fire later and find the hold gone
// (see unhold).
func (x *ExOR) ReleaseCustody() uint64 {
	n := uint64(len(x.pend))
	for _, rx := range x.pend {
		rx.packet.Release()
	}
	clear(x.pend)
	x.pend = x.pend[:0]
	return n
}

// sequentialAcks is preExOR's schedule: one reserved ACK slot per rank.
type sequentialAcks struct{}

// slot is the start offset of rank r's ACK slot after the data frame ends:
// SIFS, then r preceding slots of (ACK airtime + SIFS).
func (sequentialAcks) slot(p phys.Params, r int) sim.Time {
	return p.SIFS + sim.Time(r)*(p.ACKTime()+p.SIFS)
}

// collect waits out the full n-slot schedule, shadowed slots included.
func (a sequentialAcks) collect(p phys.Params, n int) sim.Time {
	return a.slot(p, n) + 2*sim.Microsecond
}

func (a sequentialAcks) receive(x *ExOR, rx *exorRx) {
	// Every receiving forwarder ACKs in its reserved slot.
	x.TransmitAfter(a.slot(x.P, rx.rank), x.ack(rx))
	if rx.rank == 0 {
		// Destination: nobody outranks it, deliver immediately.
		rx.packet.Ref()
		x.takeCustody(rx)
		x.recycle(rx)
		return
	}
	// Forwarder: custody is decided when the whole schedule has played out.
	x.decideAfter(a.collect(x.P, rx.nFwd), rx)
}

func (sequentialAcks) decide(x *ExOR, rx *exorRx) {
	if rx.covered {
		rx.packet.Release()
		return // a closer station has it
	}
	x.takeCustody(rx)
}

func (sequentialAcks) carrier(*ExOR) { /* reserved slots: carrier changes nothing */ }

// compressedAcks is MCExOR's schedule: the ACK slots collapse to SIFS
// steps, and only the first station to find the channel silent acknowledges.
type compressedAcks struct{}

// collect: the last possible ACK starts after (n+1)·SIFS; wait for it plus
// the ACK airtime.
func (compressedAcks) collect(p phys.Params, n int) sim.Time {
	return sim.Time(n+1)*p.SIFS + p.ACKTime() + 2*sim.Microsecond
}

func (compressedAcks) receive(x *ExOR, rx *exorRx) {
	// Rank r transmits its ACK after (r+1)·SIFS unless it detected an ACK
	// (any carrier) during the wait; the acknowledging station takes custody.
	x.decideAfter(sim.Time(rx.rank+1)*x.P.SIFS, rx)
}

func (compressedAcks) decide(x *ExOR, rx *exorRx) {
	if rx.covered || x.Med.CarrierBusy(x.ID) {
		rx.packet.Release()
		return // a higher-priority station acknowledged first
	}
	x.C.TxFrames++
	x.Med.Transmit(x.ack(rx))
	x.takeCustody(rx)
}

// carrier: "if it detects an ACK transmission during its waiting period, it
// will not transmit" — any carrier suppresses every pending ACK.
func (compressedAcks) carrier(x *ExOR) {
	for _, rx := range x.pend {
		rx.covered = true
	}
}
