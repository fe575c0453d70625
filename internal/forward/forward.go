// Package forward implements the 802.11 station every forwarding scheme is
// built on, and the schemes the paper compares RIPPLE against. Station
// (station.go) is the chassis: interface queue, DCF contender, exchange
// bookkeeping, crash/recover and every MAC upcall guard, written once. A
// scheme is a Protocol plugged into it and holds only its frame exchange:
// Unicast is predetermined routing over plain DCF ("D"; direct single-hop
// SPR "S") or with AFR aggregation ("A"), ExOR is the opportunistic preExOR
// and MCExOR pair of §II, which differ only in their ACK schedule. RIPPLE
// itself lives in internal/core on the same chassis. RouteBook answers the
// schemes' routing questions.
package forward

import (
	"math/bits"
	"slices"

	"ripple/internal/audit"
	"ripple/internal/phys"
	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
)

// Scheme is one station's forwarding agent: it owns the station's MAC
// behaviour (it is the radio.MAC upcall target) and accepts locally
// originated packets from the transport layer. Station implements all of
// it; a scheme gets it by embedding one.
type Scheme interface {
	radio.MAC
	// Send hands a locally originated packet to the MAC send queue;
	// it reports false when the queue is full and the packet was dropped.
	Send(p *pkt.Packet) bool
	// QueueLen returns the current MAC send-queue depth, including any
	// in-service (transmitted but unacknowledged) batch.
	QueueLen() int
	// Crash removes the station from the network: every queued, in-service
	// and relay-custody packet is released back to its pool, pending
	// timers are cancelled, and all MAC upcalls are ignored until Recover.
	// Receptions already in flight at the medium finish their scheduled
	// bookkeeping (so the pool stays balanced) but are not processed.
	Crash()
	// Recover brings a crashed station back with empty MAC state and
	// resynchronises its carrier-sense view with the medium.
	Recover()
}

// Counters tallies per-station MAC-level events for a run.
type Counters struct {
	TxFrames     uint64 // frames transmitted (including relays and ACKs)
	TxData       uint64 // data frames transmitted
	TxPackets    uint64 // upper-layer packets transmitted (incl. retx)
	RxData       uint64 // data frames decoded and addressed to us
	AckTimeouts  uint64 // exchanges that ended in timeout
	Retries      uint64 // frame retransmissions
	MACDrops     uint64 // packets dropped after exceeding the retry limit
	QueueDrops   uint64 // packets rejected by a full interface queue
	Relays       uint64 // opportunistic relays transmitted
	RelayCancels uint64 // relay timers cancelled by sensed carrier
	Duplicates   uint64 // duplicate receptions suppressed
	Unreachable  uint64 // packets dropped because the flow's destination is unreachable
	CrashDrops   uint64 // packets released from custody by a station crash
}

// Add sums b into c field by field (per-station tallies into a run total).
// TestCountersAddCoversEveryField fails when a new field is left out.
func (c *Counters) Add(b Counters) {
	c.TxFrames += b.TxFrames
	c.TxData += b.TxData
	c.TxPackets += b.TxPackets
	c.RxData += b.RxData
	c.AckTimeouts += b.AckTimeouts
	c.Retries += b.Retries
	c.MACDrops += b.MACDrops
	c.QueueDrops += b.QueueDrops
	c.Relays += b.Relays
	c.RelayCancels += b.RelayCancels
	c.Duplicates += b.Duplicates
	c.Unreachable += b.Unreachable
	c.CrashDrops += b.CrashDrops
}

// RouteBook holds the per-flow routes for a run and answers the two
// questions schemes ask: "who is my next hop" (predetermined) and "what is
// the prioritised forwarder list from here" (opportunistic). Forwarder
// lists are capped at MaxForwarders intermediate stations (paper Remark 4).
//
// A flow is named by its slot, its index in the run's flow list
// (pkt.Packet.FlowSlot), never by its ID: the book is one record per flow in
// a slice indexed by slot, grown to the highest slot added, so the
// per-packet questions cost no hashing.
type RouteBook struct {
	flows         []flowRoute
	maxForwarders int
	// failThreshold gates failure-aware degradation, active only under fault
	// injection: 0 (the default) makes every Note* call a no-op, so
	// fault-free runs pay nothing.
	failThreshold int
	// paths is where the book's own paths are cut from.
	paths pathSlab
}

// pathSlab is the array the route book cuts the paths it makes from:
// reversals, routes capped at the forwarder count, and a sender's route
// around the stations it banned. A frame carries a forwarder list that is a
// view of one for as long as it is on the air, so nothing handed out is
// written again until Init: paths are cut from the free tail only, and a
// full array is left to its readers for a larger one. Init empties the slab
// sized to what was cut since the last Init, so a book that repeats its
// last run cuts every path from one array and allocates nothing.
type pathSlab struct {
	buf []pkt.NodeID // buf[:len] is handed out, buf[len:cap] is free
	cut int          // nodes handed out since Init, over every array
}

// room returns the empty free tail, with room for n nodes: the caller
// builds a path there and hands it out with take.
func (s *pathSlab) room(n int) routing.Path {
	if cap(s.buf)-len(s.buf) < n {
		s.buf = make([]pkt.NodeID, 0, max(2*cap(s.buf), s.cut+n))
	}
	return s.buf[len(s.buf):len(s.buf)]
}

// take hands out p, a path built in room's tail, with its capacity capped
// at its length.
func (s *pathSlab) take(p routing.Path) routing.Path {
	s.buf = s.buf[:len(s.buf)+len(p)]
	s.cut += len(p)
	return p[:len(p):len(p)]
}

// reset empties the slab, one array as large as everything cut since the
// last reset.
func (s *pathSlab) reset() {
	if cap(s.buf) < s.cut {
		s.buf = make([]pkt.NodeID, 0, s.cut)
	}
	*s = pathSlab{buf: s.buf[:0]}
}

// route is a path and its reversal, made on the first list asked for toward
// the destination: every forwarder list is a prefix of one of the two, so
// FwdList answers with a view and builds nothing per station.
type route struct {
	path, rev routing.Path
}

// flowRoute is everything the book holds for one flow.
type flowRoute struct {
	route
	// unreachable flags a flow whose destination the current epoch world
	// cannot reach; schemes drop its traffic at the source (counted as
	// Counters.Unreachable) instead of burning retries. unreachDrops
	// attributes those drops to the flow for FlowResult.
	unreachable  bool
	unreachDrops int64
	// senders holds the failure state of the flow's senders, a few at most,
	// searched linearly. Streaks and blacklists are scoped per sender: a
	// station that keeps abandoning packets suspects its *own* path next hop,
	// and only its own view of the route loses that hop — a flow-global
	// blacklist would knock a live relay out of every other station's list.
	// Records last until the flow's next Add (the next epoch re-decides from
	// the fault-masked table).
	senders []senderRoute
}

// senderRoute is one sender's failure state on a flow.
type senderRoute struct {
	from  pkt.NodeID
	fails int // consecutive abandoned packets
	// route is the sender's own view once it has banned a station, nil
	// before: the flow's route without the stations it banned, never an
	// endpoint. A ban cuts a new path, it never rewrites one.
	route
}

// banned reports whether the sender has banned station n of the flow's path.
func (s *senderRoute) banned(n pkt.NodeID) bool {
	return s.path != nil && !slices.Contains(s.path, n)
}

// NewRouteBook creates a route book; maxForwarders caps forwarder lists
// (the paper's default is 5).
func NewRouteBook(maxForwarders int) *RouteBook {
	b := &RouteBook{}
	b.Init(maxForwarders)
	return b
}

// Init makes b, in place, an empty book capped at maxForwarders: every
// field zero but the flow records, emptied with the capacity of each one's
// sender records kept, and the path slab, emptied. A run arena
// re-initialises its book between runs, when no frame holds a list.
func (b *RouteBook) Init(maxForwarders int) {
	for i := range b.flows {
		b.flows[i] = flowRoute{senders: b.flows[i].senders[:0]}
	}
	b.paths.reset()
	*b = RouteBook{maxForwarders: maxForwarders, flows: b.flows[:0], paths: b.paths}
}

// Add registers or replaces the path for the flow at slot (source to
// destination order). The forwarder cap follows the paper's convention: the
// destination counts as the highest-priority forwarder, so a cap of 5
// allows the destination plus four intermediate stations.
//
// Route policies replace a flow's path mid-run, each epoch. Schemes read
// the book per transmission, so traffic still at the source or at stations
// shared by both routes follows the new path from its next transmission;
// packets already queued at a station the new route drops have no next hop
// any more and are dropped there (counted as MACDrops) — re-routing under
// load is not free, and loss/MoS results reflect that.
func (b *RouteBook) Add(slot int, p routing.Path) {
	if slot >= len(b.flows) && slot < cap(b.flows) {
		b.flows = b.flows[:slot+1] // records past the end are emptied ones
	}
	b.flows = pkt.Extend(b.flows, slot)
	fr := &b.flows[slot]
	// A path over the cap is capped in the slab's free tail, and cut only
	// when it is new: epoch swaps and re-route ticks re-add every flow,
	// mostly unchanged, and an equal route keeps its reversal.
	interior := b.maxForwarders - 1
	capped := len(p) >= 3 && len(p)-2 > interior
	if capped {
		p = p.AppendLimit(b.paths.room(len(p)), interior)
	}
	if !slices.Equal(fr.path, p) {
		if capped {
			p = b.paths.take(p)
		}
		fr.path, fr.rev = p, nil
	}
	// A fresh route absolves the flow's blacklists and failure streaks: the
	// route decision already accounts for the current fault overlay.
	fr.senders = fr.senders[:0]
}

// view is the route sender `from` sees on the flow at slot: its own once it
// has banned a station, the flow's otherwise; nil past the highest slot
// added. A slot below it that was never added has a nil path, on which
// every question finds no station.
func (b *RouteBook) view(slot int, from pkt.NodeID) *route {
	if slot >= len(b.flows) {
		return nil
	}
	fr := &b.flows[slot]
	if s := fr.sender(from); s != nil && s.path != nil {
		return &s.route
	}
	return &fr.route
}

// NextHop returns the next hop for a packet of the flow at slot currently
// at `from` and ultimately bound for endpoint `dst`. Blacklisted forwarders
// are skipped over — the packet is handed to the next station down the
// path (never past dst, which is exempt from blacklisting).
func (b *RouteBook) NextHop(slot int, from, dst pkt.NodeID) (pkt.NodeID, bool) {
	if r := b.view(slot, from); r != nil {
		return r.path.NextHop(from, dst)
	}
	return 0, false
}

// FwdList returns the destination-first prioritised forwarder list for a
// transmission by `from` toward endpoint `dst` on the flow at slot: the
// stations between them that `from` has not blacklisted, nearest to dst
// first, dst included and `from` excluded; nil when `from` is not on the
// path, is dst, or dst is not an endpoint. The returned slice is owned by
// the RouteBook and never rewritten, and its capacity is its length, so
// frames embed it directly and an append to it copies.
func (b *RouteBook) FwdList(slot int, from, dst pkt.NodeID) []pkt.NodeID {
	if r := b.view(slot, from); r != nil {
		return b.list(r, from, dst)
	}
	return nil
}

// list is the forwarder list on r from `from` toward endpoint `toward`: a
// capacity-capped view of the path toward the source, of its reversal
// toward the destination, cut from the slab when first asked for.
func (b *RouteBook) list(r *route, from, toward pkt.NodeID) []pkt.NodeID {
	p := r.path
	i := slices.Index(p, from)
	if i < 0 || from == toward {
		return nil
	}
	switch last := len(p) - 1; toward {
	case p[last]:
		if r.rev == nil {
			rev := b.paths.room(len(p))
			for k := last; k >= 0; k-- {
				rev = append(rev, p[k])
			}
			r.rev = b.paths.take(rev)
		}
		return r.rev[: last-i : last-i]
	case p[0]:
		return p[:i:i]
	}
	return nil
}

// sender returns the failure record of `from` on the flow, nil if it has
// none.
func (fr *flowRoute) sender(from pkt.NodeID) *senderRoute {
	for i := range fr.senders {
		if fr.senders[i].from == from {
			return &fr.senders[i]
		}
	}
	return nil
}

// EnableFailureDetection turns on forwarder blacklisting: after `threshold`
// (positive) consecutive abandoned packets on a flow (retry budget
// exhausted, with no successful acknowledgement in between) the flow's
// preferred forwarder is blacklisted until the next route update.
// Left unenabled — the default — every failure-detection hook is a no-op.
func (b *RouteBook) EnableFailureDetection(threshold int) { b.failThreshold = threshold }

// NoteTxFailure records one abandoned packet by `from` for the flow at
// slot — MACs call it at the terminal drop, not per ACK timeout, because
// on a lossy channel single timeouts are routine while a dead next hop
// exhausts every packet's retry budget. When the sender's
// consecutive-failure streak reaches the enabled threshold, the sender
// blacklists its own path next hop — the station whose silence it has
// been observing — from its own forwarder list, and the streak resets.
// The sender must keep at least one other non-destination forwarder:
// blacklisting the only relay would leave it transmitting straight at a
// (likely out-of-range) destination, a guaranteed outage worse than
// hammering a possibly dead forwarder — single-relay routes rely on the
// next epoch's fault-masked route instead. No-op unless
// EnableFailureDetection was called.
func (b *RouteBook) NoteTxFailure(slot int, from, dst pkt.NodeID) {
	if b.failThreshold == 0 || slot >= len(b.flows) {
		return
	}
	fr := &b.flows[slot]
	s := fr.sender(from)
	if s == nil {
		fr.senders = append(fr.senders, senderRoute{from: from})
		s = &fr.senders[len(fr.senders)-1]
	}
	if s.fails++; s.fails < b.failThreshold {
		return
	}
	s.fails = 0
	target, ok := fr.path.NextHop(from, dst)
	if !ok || target == dst || s.banned(target) {
		return
	}
	relays := 0
	for _, n := range b.FwdList(slot, from, dst) {
		if n != dst && n != target {
			relays++
		}
	}
	if relays >= 1 {
		// The sender's view so far, without the target.
		view := b.view(slot, from).path
		p := b.paths.room(len(view))
		for _, n := range view {
			if n != target {
				p = append(p, n)
			}
		}
		s.route = route{path: b.paths.take(p)}
	}
}

// NoteTxSuccess resets the sender's consecutive-failure streak for the
// flow at slot (an acknowledged exchange proves its forwarder set alive).
// No-op unless failure detection is enabled.
func (b *RouteBook) NoteTxSuccess(slot int, from pkt.NodeID) {
	if b.failThreshold == 0 || slot >= len(b.flows) {
		return
	}
	if s := b.flows[slot].sender(from); s != nil {
		s.fails = 0
	}
}

// SetUnreachable flags or clears the flow at slot as one whose destination
// the current epoch world cannot reach. Schemes consult Unreachable at
// their send and grant points and drop the flow's traffic immediately
// (counted as Counters.Unreachable) instead of looping retries at the MAC.
func (b *RouteBook) SetUnreachable(slot int, v bool) { b.flows[slot].unreachable = v }

// Unreachable reports whether the flow at slot is currently flagged
// unreachable.
func (b *RouteBook) Unreachable(slot int) bool {
	return slot < len(b.flows) && b.flows[slot].unreachable
}

// NoteUnreachableDrop attributes one unreachable-destination drop to the
// flow at slot (surfaced as FlowResult.Unreachable).
func (b *RouteBook) NoteUnreachableDrop(slot int) { b.flows[slot].unreachDrops++ }

// UnreachableDrops returns the flow's unreachable-destination drop count.
func (b *RouteBook) UnreachableDrops(slot int) int64 {
	if slot >= len(b.flows) {
		return 0
	}
	return b.flows[slot].unreachDrops
}

// Env bundles the per-station dependencies a scheme instance needs.
type Env struct {
	Eng     *sim.Engine
	Med     *radio.Medium
	P       phys.Params
	ID      pkt.NodeID
	RNG     *sim.RNG
	Routes  *RouteBook
	Deliver func(*pkt.Packet) // hand packet to the local transport layer
	C       *Counters
	// MultiRate enables the multi-rate extension (paper §V future work):
	// Rate picks the PHY data rate toward each receiver.
	MultiRate bool
	// Audit is the deep-audit plane's auditor, nil unless the run enabled
	// deep auditing; Station.Init taps the station's MAC queue with it.
	Audit *audit.Auditor
}

// Rate returns the PHY rate toward `to`, or 0 (base rate) when the
// multi-rate extension is off: the oracle's pick for the link's analytic
// delivery probability under the medium's propagation model.
func (e *Env) Rate(to pkt.NodeID) float64 {
	if !e.MultiRate {
		return 0
	}
	cfg := e.Med.Config()
	return phys.OracleRate(1-cfg.LossProb(e.Med.Distance(e.ID, to)), cfg.ShadowSigmaDB, e.P)
}

// Acked reports whether uid appears in a frame's acknowledged-UID list.
// A linear scan: the list is bounded by the aggregation limit (16), so it
// beats building a lookup map per ACK on the hot path.
func Acked(ackedUIDs []uint64, uid uint64) bool {
	for _, id := range ackedUIDs {
		if id == uid {
			return true
		}
	}
	return false
}

// SeenSet remembers the most recent identifiers shown to it, up to SeenCap
// of them: packet UIDs already delivered or taken into custody, mTXOPs
// already relayed. Past capacity each insertion evicts the oldest, in
// insertion order, so a station's memory is bounded however long the run.
// The zero value is an empty set, and a station that never sees an
// identifier allocates nothing for it.
//
// A run arena keeps every station's sets at the size the largest run grew
// them to, so the representation is a compact one: twelve bytes per slot.
type SeenSet struct {
	// ring holds the members in insertion order. It doubles as the set fills
	// — a full ring up front would cost every station of a city 32 KB it
	// never uses — and once at SeenCap it is overwritten in place: oldest is
	// then the next slot to evict and refill.
	ring   []uint64
	oldest int
	// index finds a member in the ring: an open-addressed table with two
	// slots per ring slot, each empty (zero) or a ring position plus one,
	// probed linearly from the identifier's home slot. shift takes a hash to
	// a home slot.
	index []uint16
	shift uint8
}

// SeenCap is the capacity of a SeenSet: far more identifiers than can be in
// play at one station at once (a packet is retransmitted hop by hop for
// milliseconds, an mTXOP lasts about as long), so eviction never forgets one
// that can still come back.
const SeenCap = 4096

// seenMin is the ring's first size.
const seenMin = 16

// home is where id's probe sequence starts: Fibonacci hashing, which spreads
// the runs of consecutive numbers that UIDs and mTXOP numbers are.
func (s *SeenSet) home(id uint64) int { return int(id * 0x9E3779B97F4A7C15 >> s.shift) }

// Has reports whether id is remembered.
func (s *SeenSet) Has(id uint64) bool {
	if len(s.ring) == 0 {
		return false
	}
	mask := len(s.index) - 1
	for i := s.home(id); ; i = (i + 1) & mask {
		p := s.index[i]
		if p == 0 {
			return false
		}
		if s.ring[p-1] == id {
			return true
		}
	}
}

// Seen reports whether id was remembered already, and remembers it,
// evicting the oldest member when the set is full.
func (s *SeenSet) Seen(id uint64) bool {
	if s.Has(id) {
		return true
	}
	n := len(s.ring)
	if n == SeenCap {
		s.forget(s.ring[s.oldest])
		s.ring[s.oldest] = id
		s.enter(id, s.oldest)
		s.oldest = (s.oldest + 1) % SeenCap
		return false
	}
	if n == cap(s.ring) {
		c := min(max(seenMin, 2*n), SeenCap)
		s.ring = append(make([]uint64, 0, c), s.ring...)
		s.index = make([]uint16, 2*c)
		s.shift = uint8(64 - bits.TrailingZeros(uint(2*c)))
		for pos, member := range s.ring {
			s.enter(member, pos)
		}
	}
	s.ring = append(s.ring, id)
	s.enter(id, n)
	return false
}

// enter indexes id, which is not a member, at ring position pos.
func (s *SeenSet) enter(id uint64, pos int) {
	mask := len(s.index) - 1
	i := s.home(id)
	for s.index[i] != 0 {
		i = (i + 1) & mask
	}
	s.index[i] = uint16(pos + 1)
}

// forget removes the member id from the index, closing the gap it leaves: an
// entry further along the probe run moves back into the hole unless its home
// lies after the hole, and so on down the run.
func (s *SeenSet) forget(id uint64) {
	mask := len(s.index) - 1
	i := s.home(id)
	for s.ring[s.index[i]-1] != id {
		i = (i + 1) & mask
	}
	for j := i; ; {
		s.index[i] = 0
		for {
			j = (j + 1) & mask
			p := s.index[j]
			if p == 0 {
				return
			}
			if h := s.home(s.ring[p-1]); (j-h)&mask >= (j-i)&mask {
				s.index[i] = p
				i = j
				break
			}
		}
	}
}

// Len reports how many identifiers are remembered.
func (s *SeenSet) Len() int { return len(s.ring) }

// Reset forgets everything (a crashed station's memory dies with it), and
// keeps the capacity.
func (s *SeenSet) Reset() {
	clear(s.index)
	s.ring = s.ring[:0]
	s.oldest = 0
}
