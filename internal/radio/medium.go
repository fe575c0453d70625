package radio

import (
	"fmt"
	"math"

	"ripple/internal/phys"
	"ripple/internal/pkt"
	"ripple/internal/sim"
)

// MAC is the upcall interface the medium drives. Each station registers one.
// Callbacks fire in deterministic event order on the simulation engine.
type MAC interface {
	// ChannelBusy fires when the station's view of the medium transitions
	// idle→busy (external carrier sensed or own transmission started).
	ChannelBusy()
	// ChannelIdle fires on the busy→idle transition.
	ChannelIdle()
	// FrameReceived delivers a successfully decoded frame. pktOK flags
	// which aggregated sub-packets survived the bit-error process (nil for
	// ACK frames). The *Frame is shared between receivers: treat as
	// read-only, and Hold it to keep it past the call — it is recycled once
	// it has left the air everywhere. pktOK is a scratch buffer valid only
	// for the duration of the call — copy what outlives it.
	FrameReceived(f *pkt.Frame, pktOK []bool)
	// FrameCorrupted fires when a decodable frame ended but could not be
	// understood (collision, capture loss, half-duplex overlap or header
	// bit errors). 802.11 stations apply EIFS after this.
	FrameCorrupted()
	// TxDone fires at the station's own transmission end. The frame is the
	// medium's by then (see Transmit): valid during the call.
	TxDone(f *pkt.Frame)
}

// Counters aggregates medium-level statistics for a run.
type Counters struct {
	FramesSent      uint64 // transmissions started
	FramesDelivered uint64 // successful decodes (per receiver)
	FramesCollided  uint64 // decodable frames lost to overlap/capture
	FramesShadowed  uint64 // frames below decode threshold at a listed receiver
	HeaderErrors    uint64 // decodable frames lost to header bit errors
	HalfDuplexLost  uint64 // decodable frames lost because receiver was transmitting
}

// reception is one frame as sensed by one receiver: an entry of its
// transmission's slab, never allocated or scheduled on its own.
type reception struct {
	dst      *station
	powerDBm float64
	// powerMW is the same received power in linear milliwatts, or 0 until
	// mw converts it: only a reception that overlaps another at its
	// receiver ever needs the linear value, and most never do.
	powerMW float64
	// interfMW accumulates the linear power (mW) of every frame that
	// overlapped this reception. The frame survives if its own power
	// exceeds the accumulated interference by the capture margin —
	// cumulative SINR, so several individually-capturable interferers
	// can still jointly corrupt a reception (the aggregate hidden-terminal
	// effect of Fig. 6(b)).
	interfMW float64
	delay    sim.Time // propagation delay, as the plan had it at transmit time
	row      int32    // position in the transmitter's plan row
	// decodable is false for pure carrier; blocked is set when the receiver
	// transmitted during the frame.
	decodable bool
	blocked   bool
}

// mw returns the reception's power in linear milliwatts, converting on
// first use, so the interference loop in beginReception costs at most one
// math.Pow per reception and a reception nothing overlaps costs none.
func (r *reception) mw() float64 {
	if r.powerMW == 0 {
		r.powerMW = dbmToMW(r.powerDBm)
	}
	return r.powerMW
}

func (r *reception) corrupted(captureDB float64) bool {
	if r.interfMW <= 0 {
		return false
	}
	return r.powerDBm-float64(10*math.Log10(r.interfMW)) < captureDB
}

// transmission is the pooled record of one frame on the air. rx is the slab
// of its scheduled receptions, in the transmitter's row order — the order
// the shadowing samples are drawn in. The transmitter's tx-done has key
// (end, base); reception i begins at start+delay with sequence number
// base+1+2i and ends at end+delay with base+2+2i: the keys a tx-done event
// and two engine events per receiver, scheduled in that order, would have
// had. The engine holds two series entries for all of them, the begin and
// the end cursor, each walking the slab in (delay, index) order — which is
// ascending key order, since the sequence numbers ascend with the index.
// The end cursor fires the tx-done first: it is at end with the smallest
// sequence number of the block.
//
// The medium owns the record from Transmit until the end cursor has fired
// its last event; station.current points into the slab only between a
// reception's begin and its end, so by then nothing does, and the record
// goes back to the pool with its slab's capacity.
type transmission struct {
	m          *Medium
	frame      *pkt.Frame
	start, end sim.Time
	base       uint64
	rx         []reception
	// order is the slab indices in (delay, index) order, or empty when the
	// slab is already in that order (every row with no delay order: nearly
	// every pruned row, drawn in mean-power order).
	order []int32
	begin beginCursor
	done  endCursor
}

// at returns the slab index of the pos-th reception in firing order.
func (t *transmission) at(pos int) int {
	if len(t.order) > 0 {
		return int(t.order[pos])
	}
	return pos
}

// beginCursor and endCursor are a transmission's two phases as sim.Series,
// embedded so that &t.begin / &t.done convert to the interface without
// allocating: the begin cursor walks the reception begins, the end cursor
// the tx-done and then the reception ends.
type beginCursor struct {
	t   *transmission
	pos int
}

func (c *beginCursor) Fire() (sim.Time, uint64, bool) {
	t := c.t
	r := &t.rx[t.at(c.pos)]
	t.m.beginReception(r.dst, r)
	c.pos++
	if c.pos == len(t.rx) {
		return 0, 0, false
	}
	i := t.at(c.pos)
	return t.start + t.rx[i].delay, t.base + 1 + 2*uint64(i), true
}

// endCursor's pos counts the events it has fired: pos 0 is the tx-done,
// pos k ≥ 1 the end of the (k-1)-th reception in firing order.
type endCursor struct {
	t   *transmission
	pos int
}

func (c *endCursor) Fire() (sim.Time, uint64, bool) {
	t := c.t
	if c.pos == 0 {
		t.m.endTransmission(t.frame)
	} else {
		r := &t.rx[t.at(c.pos-1)]
		t.m.endReception(r.dst, r, t.frame)
	}
	if c.pos == len(t.rx) {
		t.m.recycleTransmission(t)
		return 0, 0, false
	}
	i := t.at(c.pos)
	c.pos++
	return t.end + t.rx[i].delay, t.base + 2 + 2*uint64(i), true
}

// endTransmission is the tx-done: f has left the air at its transmitter.
func (m *Medium) endTransmission(f *pkt.Frame) {
	f.AssertLive("radio: transmission end")
	src := &m.stations[f.Tx]
	src.txing = false
	if src.busyRefs() == 0 {
		src.mac.ChannelIdle()
	}
	src.mac.TxDone(f)
	f.AirDone()
}

// station is the per-node PHY state.
type station struct {
	id      pkt.NodeID
	pos     Pos
	mac     MAC
	sensed  int  // external frames currently above CS threshold
	txing   bool // transmitting right now
	current []*reception
	// addressedBy is the serial of the last transmission that named this
	// station as a forwarder or as its unicast receiver, with metStamp set
	// once that transmission's row met the station (see Transmit).
	addressedBy uint64
}

// metStamp marks a station's addressedBy stamp as met by the transmitter's
// row. Serials never reach it, so a met stamp equals no serial.
const metStamp = 1 << 63

func (s *station) busyRefs() int {
	n := s.sensed
	if s.txing {
		n++
	}
	return n
}

// Medium is the shared wireless channel. Create one with NewMediumOn, or Init
// one in place; it is not safe for concurrent use (drive it from the
// Engine). Between runs a run arena Resets its medium and Inits it again:
// what a Medium keeps across that — and nothing else — is listed in Reset.
type Medium struct {
	eng *sim.Engine
	cfg Config
	phy phys.Params
	rng *sim.RNG
	// stations is one slab, held by value: receptions point into it, so it
	// is only ever replaced by Init, when nothing does.
	stations []station
	Counters Counters

	// plan is the immutable link precomputation (who hears whom, in CSR
	// layout). The plan may be shared read-only with other Mediums running
	// concurrently (see LinkPlan); everything this Medium mutates lives on
	// the Medium itself, the transmit rows it derives from the plan
	// included: rows holds them, per plan, and cur is the current plan's,
	// so that Transmit performs no math.Hypot/math.Log10 per frame past a
	// station's first under a plan.
	plan *LinkPlan
	n    int
	rows rowCache
	cur  *planRows

	// freeAir recycles transmission records; onAir counts the records out
	// of the pool. slabOf is Transmit's scratch map from plan-row position
	// to slab index. pOKByBits memoizes the bitsSurvive survival
	// probability per distinct bit length (the BER is fixed for the run),
	// searched linearly: a run has a handful of packet sizes; pktOKBuf is
	// the per-reception sub-packet CRC scratch handed to MAC.FrameReceived
	// (valid only during the upcall).
	freeAir   sim.FreeList[transmission]
	onAir     int
	slabOf    []int32
	pOKByBits []survival
	pktOKBuf  []bool
	// quarantine is the deep audit's setting: released frames and reception
	// slabs are poisoned and never reissued (see Quarantine).
	quarantine bool

	// frames is the run's frame pool (see NewFrame).
	frames pkt.FramePool

	// Trace, when non-nil, receives low-level medium events ("tx", "rx",
	// "corrupt") with their simulation time, for debugging, tests and the
	// trace.Recorder. node is the receiving station for rx/corrupt events
	// and the transmitter for tx events. The frame is valid only during the
	// call, as FrameReceived's pktOK is: it is recycled after it leaves the
	// air, so a hook that keeps anything copies it.
	Trace func(at sim.Time, event string, node pkt.NodeID, f *pkt.Frame)

	// txSerial numbers transmissions; Transmit stamps it on the stations
	// the frame addresses, so the receiver loop tests "addressed?" with one
	// compare instead of scanning the forwarder list, and the pruned-
	// shadowing count tests "not met by the row?" with one more instead of
	// searching the row.
	txSerial uint64

	// Fault-injection state, all inert by default: down stations receive
	// no frames (and transmitting while down is a scheme bug), noiseDB is
	// a per-receiver SNR penalty, and linkBlocked (when non-nil) vetoes
	// individual transmitter→receiver deliveries. down and noiseDB are empty
	// until the first SetDown / SetNoiseDB. Without faults the hot path pays
	// one length or nil check per hook, and the RNG draw sequence is
	// untouched — bit-identical to a medium predating the hooks.
	down        []bool
	noiseDB     []float64
	linkBlocked LinkBlocker
}

// LinkBlocker is the delivery veto a fault schedule supplies (link flaps
// and partitions). Both answers must depend only on their arguments.
type LinkBlocker interface {
	// BlocksFrom reports whether any delivery from tx can be blocked at
	// time t. It may say true for a station none of whose links is blocked
	// right now, never false for one that has a blocked link.
	BlocksFrom(tx pkt.NodeID, t sim.Time) bool
	// LinkBlockedAt reports whether a frame from tx must not reach rx at
	// time t.
	LinkBlockedAt(tx, rx pkt.NodeID, t sim.Time) bool
}

// NewMediumOn creates a medium over a prebuilt — possibly shared — link
// plan, skipping the O(N²) precomputation. The plan is read-only to the
// medium; per-run mutable state (station PHY state, counters, RNG, pools)
// is private, so any number of mediums can run concurrently on one plan.
// A medium on a shared plan is RNG-bit-identical to one on a plan of its own
// built from the same Config and positions.
func NewMediumOn(eng *sim.Engine, plan *LinkPlan, p phys.Params, rng *sim.RNG) *Medium {
	m := &Medium{}
	m.Init(eng, plan, p, rng)
	return m
}

// Init puts m — the zero value, or a medium that has been Reset — on an
// engine, a link plan and a shadowing stream, with one idle, unattached
// station per plan position.
func (m *Medium) Init(eng *sim.Engine, plan *LinkPlan, p phys.Params, rng *sim.RNG) {
	m.eng, m.cfg, m.phy, m.rng = eng, plan.cfg, p, rng
	m.plan, m.n = plan, plan.n
	m.rows.adopt(plan)
	m.cur = m.rows.of(plan)
	if cap(m.stations) < plan.n {
		m.stations = make([]station, plan.n)
	}
	m.stations = m.stations[:plan.n]
	for i, pos := range plan.positions {
		s := &m.stations[i]
		*s = station{id: pkt.NodeID(i), pos: pos, current: s.current[:0]}
	}
}

// Reset takes the medium off its engine, plan and stream and empties it,
// keeping only capacity — the station slab with each station's in-progress
// list, the transmission records it ever allocated (recalled from wherever
// the run left them, reception slabs and all), the frame pool's frames, and
// the scratch buffers — and the row cache, for the next Init over the same
// plans to read. Counters, the transmission serial, the trace hook,
// the link veto, quarantine and the memoised survival probabilities (the
// next run's BER may differ) start over. The engine must be Reset too: it
// may still hold the recalled records' cursors.
func (m *Medium) Reset() {
	m.freeAir.Recall((*transmission).wipe)
	m.frames.Reset()
	*m = Medium{
		stations: m.stations[:0],
		freeAir:  m.freeAir, frames: m.frames, rows: m.rows,
		slabOf: m.slabOf, pktOKBuf: m.pktOKBuf, pOKByBits: m.pOKByBits[:0],
		down: m.down[:0], noiseDB: m.noiseDB[:0],
	}
}

// wipe returns the record to its pooled state: wired to its medium, slab and
// order empty with their capacity.
func (t *transmission) wipe() {
	*t = transmission{m: t.m, rx: t.rx[:0], order: t.order[:0]}
	t.begin.t = t
	t.done.t = t
}

// newTransmission pops a recycled transmission record, its slab empty, or
// allocates one with its cursors wired.
func (m *Medium) newTransmission() *transmission {
	m.onAir++
	if t := m.freeAir.Get(); t != nil {
		return t
	}
	t := &transmission{m: m}
	t.wipe()
	if !m.quarantine {
		// Under quarantine a used record is dropped, not pooled: owning it
		// would keep every slab of the run alive until the next Reset.
		m.freeAir.Own(t)
	}
	return t
}

// recycleTransmission takes back a record none of whose receptions is in
// progress any more. The slab keeps its capacity and its stale entries:
// Transmit overwrites every field of the entries it appends. Under
// quarantine a slab that was used loses its receivers instead and the
// record is dropped, so a station.current that still points into the slab
// is found by assertCurrent whenever it is next walked, not only until
// reuse.
func (m *Medium) recycleTransmission(t *transmission) {
	m.onAir--
	t.frame = nil
	if m.quarantine && len(t.rx) > 0 {
		for i := range t.rx {
			t.rx[i].dst = nil
		}
		return
	}
	t.wipe()
	m.freeAir.Put(t)
}

// assertCurrent panics if a reception in progress at dst is not dst's: its
// slab went back to the pool, or to another transmission, under it.
func (m *Medium) assertCurrent(dst *station) {
	for _, r := range dst.current {
		if r.dst != dst {
			panic(fmt.Sprintf("audit: invariant violated: reception liveness\n"+
				"  detail: station %d holds a reception whose slab was released", dst.id))
		}
	}
}

// NewFrame returns a zeroed frame from the run's pool, its one reference
// held by the caller. Transmit takes that reference over; a frame that is
// never transmitted is released by whoever gives up on it.
func (m *Medium) NewFrame() *pkt.Frame { return m.frames.Get() }

// Frames returns the run's frame pool (the audit plane reads its counters).
func (m *Medium) Frames() *pkt.FramePool { return &m.frames }

// OnAir reports how many transmissions have not ended everywhere: the
// records out of the medium's pool, each held until its tx-done and its
// last reception end. Zero once the air has drained.
func (m *Medium) OnAir() int { return m.onAir }

// Quarantine makes the medium never reuse what it recycles — frames
// (pkt.FramePool.Quarantine) and reception slabs — and check on every
// reception that the receiver's in-progress list holds none of them. The
// deep-audit plane turns it on.
func (m *Medium) Quarantine() {
	m.quarantine = true
	m.frames.Quarantine()
}

// Attach registers the MAC upcall handler for a station.
func (m *Medium) Attach(id pkt.NodeID, mac MAC) { m.stations[id].mac = mac }

// CarrierBusy reports whether station id currently senses the medium busy
// (including its own transmission).
func (m *Medium) CarrierBusy(id pkt.NodeID) bool {
	return m.stations[id].busyRefs() > 0
}

// Transmitting reports whether station id is currently transmitting.
func (m *Medium) Transmitting(id pkt.NodeID) bool { return m.stations[id].txing }

// Distance returns the distance in metres between two stations.
func (m *Medium) Distance(a, b pkt.NodeID) float64 {
	return m.plan.Distance(int(a), int(b))
}

// Plan returns the link plan the medium runs on.
func (m *Medium) Plan() *LinkPlan { return m.plan }

// SetPlan swaps the link plan the medium runs on — the epoch boundary of
// a time-varying world. The new plan must cover the same station count
// and radio configuration (LinkPlan.Rebuild guarantees both). Receptions
// already in flight finish with the powers and delays computed when they
// were transmitted — a swap mid-frame models positions changing after
// the wavefront left the antenna — while every later transmission reads
// the new plan. Call it only from inside the engine's event loop; like
// every other Medium method it is not synchronised.
func (m *Medium) SetPlan(plan *LinkPlan) {
	if plan.n != m.n {
		panic("radio: SetPlan with a different station count")
	}
	m.plan, m.cur = plan, m.rows.of(plan)
	for i := range m.stations {
		m.stations[i].pos = plan.positions[i]
	}
}

// Config returns the radio configuration the medium was built with.
func (m *Medium) Config() Config { return m.cfg }

// SetDown marks a station crashed or recovered. A down station is
// skipped as a receiver of every later transmission (no carrier, no
// decode — it is off the air, not shadowed) and must not transmit; its
// in-flight receptions at the moment of the crash still run to their
// scheduled end so pool accounting stays balanced, they are simply
// ignored by the crashed scheme.
func (m *Medium) SetDown(id pkt.NodeID, down bool) {
	if len(m.down) == 0 {
		m.down = zeroed(m.down, m.n)
	}
	m.down[id] = down
}

// zeroed returns n zero values in s's array when it is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// SetNoiseDB sets the cumulative SNR penalty in dB applied to every
// subsequent reception at the station (0 restores the clean channel).
// The penalty shifts the mean received power before the shadowing draw,
// so the RNG consumption per transmission is unchanged.
func (m *Medium) SetNoiseDB(id pkt.NodeID, db float64) {
	if len(m.noiseDB) == 0 {
		m.noiseDB = zeroed(m.noiseDB, m.n)
	}
	m.noiseDB[id] = db
}

// SetLinkBlocked installs the delivery veto: a transmission from tx is not
// scheduled at rx while b.LinkBlockedAt(tx, rx, now) holds. Transmit asks
// b.BlocksFrom(tx, now) once per transmission and consults the
// per-receiver predicate only when it says yes, so a transmitter with no
// flapping link outside a partition window pays one call, not one per
// candidate receiver.
func (m *Medium) SetLinkBlocked(b LinkBlocker) { m.linkBlocked = b }

// Transmit emits a frame from f.Tx. f.Duration must be set. The call
// returns the transmission end time. The caller's reference on a pooled
// frame passes to the medium, which releases it when the frame has left the
// air at the transmitter and at every receiver; after Transmit the caller
// sees the frame again only in TxDone. Transmitting while already
// transmitting is a MAC bug and panics: it would silently corrupt the
// simulation's accounting.
func (m *Medium) Transmit(f *pkt.Frame) sim.Time {
	src := &m.stations[f.Tx]
	if src.mac == nil {
		panic(fmt.Sprintf("radio: station %d has no MAC attached", f.Tx))
	}
	if src.txing {
		panic(fmt.Sprintf("radio: station %d transmit while transmitting", f.Tx))
	}
	if len(m.down) != 0 && m.down[f.Tx] {
		panic(fmt.Sprintf("radio: crashed station %d transmitting", f.Tx))
	}
	if f.Duration <= 0 {
		panic("radio: frame duration not set")
	}
	m.Counters.FramesSent++
	now := m.eng.Now()
	if m.Trace != nil {
		m.Trace(now, "tx", f.Tx, f)
	}
	end := now + f.Duration

	src.txing = true
	if src.busyRefs() == 1 {
		src.mac.ChannelBusy()
	}
	// A station cannot decode anything while transmitting: mark every
	// in-progress reception at the transmitter as blocked.
	if m.quarantine {
		m.assertCurrent(src)
	}
	for _, r := range src.current {
		if r.decodable && !r.blocked {
			r.blocked = true
		}
	}

	sigma := m.cfg.ShadowSigmaDB
	rxThresh := m.cfg.RXThreshDBm
	if f.RateBps > 0 {
		// Multi-rate extension: faster rates need more SNR.
		rxThresh += phys.ThresholdDeltaDB(f.RateBps, m.phy.DataBps)
	}
	// Stamp the addressed receivers — forwarder-list members and the
	// unicast receiver — for the shadowing-loss accounting below; the row
	// loop restamps each one it meets as met.
	m.txSerial++
	serial := m.txSerial
	met := serial | metStamp
	for _, id := range f.FwdList {
		m.stations[id].addressedBy = serial
	}
	if f.Rx >= 0 { // not Broadcast
		m.stations[f.Rx].addressedBy = serial
	}
	// The link veto is asked once whether this transmitter can be blocked
	// at all right now; only then is it consulted per receiver.
	veto := m.linkBlocked
	if veto != nil && !veto.BlocksFrom(f.Tx, now) {
		veto = nil
	}
	t := m.newTransmission()
	rx := t.rx
	row, order := m.row(int(f.Tx))
	for k := range row {
		l := &row[k]
		j := l.id
		dst := &m.stations[j]
		if dst.mac == nil {
			continue
		}
		addressed := dst.addressedBy == serial
		if addressed {
			dst.addressedBy = met
		}
		if len(m.down) != 0 && m.down[j] {
			continue // crashed receiver: off the air entirely
		}
		if veto != nil && veto.LinkBlockedAt(f.Tx, dst.id, now) {
			continue // flapped or partitioned link
		}
		power := l.dbm
		if len(m.noiseDB) != 0 {
			power -= m.noiseDB[j]
		}
		if sigma > 0 {
			power = m.rng.Norm(power, sigma)
		}
		if power < m.cfg.CSThreshDBm {
			// Too weak even to sense: invisible at this receiver. If the
			// receiver was in the forwarder list, record the shadowing loss.
			if addressed {
				m.Counters.FramesShadowed++
			}
			continue
		}
		decodable := power >= rxThresh
		if !decodable && addressed {
			m.Counters.FramesShadowed++
		}
		rx = append(rx, reception{dst: dst, powerDBm: power, delay: sim.Time(l.pd),
			row: int32(k), decodable: decodable})
	}
	// Hold the frame and its packets for its airtime: the tx-done event plus
	// one reception end per scheduled receiver each retire one completion,
	// and the last retires the hold. This keeps pooled packets alive for
	// late duplicate deliveries even after the source has abandoned them.
	f.BeginAir(len(rx) + 1)
	t.rx = rx
	m.schedule(t, f, now, end, order)
	if m.plan.pruned {
		// Pruned stations never drew a shadowing sample, but an addressed
		// receiver that was pruned is still a shadowing loss — keep the
		// counter semantics of the unpruned medium. A pair is pruned
		// exactly when it is absent from the plan, so exactly when the row
		// loop did not meet its receiver: its stamp is still serial.
		for _, id := range f.FwdList {
			if id != f.Tx && m.stations[id].addressedBy == serial && m.stations[id].mac != nil {
				m.Counters.FramesShadowed++
			}
		}
		if rx := f.Rx; rx >= 0 && rx != f.Tx && f.RankOf(rx) < 0 &&
			m.stations[rx].addressedBy == serial && m.stations[rx].mac != nil {
			m.Counters.FramesShadowed++
		}
	}
	return end
}

// schedule puts t on the engine: the block of sequence numbers its tx-done
// and its receptions would have taken as one event and two events each, the
// begin cursor keyed to the nearest receiver and the end cursor to the
// tx-done. perm is the delay order of the transmitter's row, nil when
// the row — and so the slab, a subsequence of it — is in delay order as it
// stands. A transmission nobody senses is a one-event end series.
func (m *Medium) schedule(t *transmission, f *pkt.Frame, now, end sim.Time, perm []int32) {
	t.frame, t.start, t.end = f, now, end
	n := len(t.rx)
	t.base = m.eng.Reserve(2*n + 1)
	if perm != nil && n > 0 {
		// Row position → slab index, then the slab indices in the order the
		// plan sorted the row positions in.
		if cap(m.slabOf) < len(perm) {
			m.slabOf = make([]int32, len(perm))
		}
		slabOf := m.slabOf[:len(perm)]
		for k := range slabOf {
			slabOf[k] = -1
		}
		for i := range t.rx {
			slabOf[t.rx[i].row] = int32(i)
		}
		for _, k := range perm {
			if i := slabOf[k]; i >= 0 {
				t.order = append(t.order, i)
			}
		}
	}
	if n > 0 {
		first := t.at(0)
		m.eng.DoSeries(now+t.rx[first].delay, t.base+1+2*uint64(first), n, &t.begin)
	}
	m.eng.DoSeries(end, t.base, n+1, &t.done)
}

func (m *Medium) beginReception(dst *station, r *reception) {
	if m.quarantine {
		m.assertCurrent(dst)
	}
	// Interference accumulates both ways: every overlapping frame adds its
	// linear power to the other's interference budget. Only a decodable
	// reception's budget is ever read (see decode), so a pure-carrier one
	// is not charged, and two overlapping carriers convert nothing.
	for _, other := range dst.current {
		if other.decodable {
			other.interfMW += r.mw()
		}
		if r.decodable {
			r.interfMW += other.mw()
		}
	}
	if dst.txing {
		r.blocked = true
	}
	dst.current = append(dst.current, r)
	dst.sensed++
	if dst.busyRefs() == 1 {
		dst.mac.ChannelBusy()
	}
}

// dbmToMW converts dBm to linear milliwatts. (Exp(x·ln10/10) would be
// ~2× cheaper but differs from Pow in the last ulp, and the capture
// comparisons must stay bit-identical across refactors.)
func dbmToMW(dbm float64) float64 { return math.Pow(10, dbm/10) }

func (m *Medium) endReception(dst *station, r *reception, f *pkt.Frame) {
	if m.quarantine {
		m.assertCurrent(dst)
	}
	// Remove from the active set.
	for i, other := range dst.current {
		if other == r {
			dst.current = append(dst.current[:i], dst.current[i+1:]...)
			break
		}
	}
	dst.sensed--
	f.AssertLive("radio: reception end")
	if r.decodable { // otherwise pure carrier: sensed energy, no decode attempt
		m.decode(dst, r, f)
	}
	f.AirDone()
	if dst.busyRefs() == 0 {
		dst.mac.ChannelIdle()
	}
}

// decode ends a decodable reception: the frame is lost to half-duplex
// overlap, capture or header bit errors, or reaches the MAC with its
// per-packet survival bitmap.
func (m *Medium) decode(dst *station, r *reception, f *pkt.Frame) {
	switch {
	case r.blocked:
		m.Counters.HalfDuplexLost++
		if m.Trace != nil {
			m.Trace(m.eng.Now(), "corrupt", dst.id, f)
		}
		dst.mac.FrameCorrupted()
		return
	case r.corrupted(m.cfg.CaptureDB):
		m.Counters.FramesCollided++
		if m.Trace != nil {
			m.Trace(m.eng.Now(), "corrupt", dst.id, f)
		}
		dst.mac.FrameCorrupted()
		return
	}

	// Bit-error process: the frame header (MAC header + forwarder list, or
	// the whole control frame for ACKs) must survive, then each aggregated
	// sub-packet survives independently. A data frame whose sub-packets
	// all died still reaches the MAC with an all-false bitmap: the header
	// was readable, so the receiver can acknowledge with an all-zero
	// bitmap.
	ber := m.cfg.BitErrorRate
	var headerBytes int
	switch f.Kind {
	case pkt.Ack:
		headerBytes = phys.ACKFrameBytes + phys.BitmapACKBytes
	case pkt.Rts:
		headerBytes = phys.RTSFrameBytes
	case pkt.Cts:
		headerBytes = phys.CTSFrameBytes
	default:
		headerBytes = phys.MACHeaderBytes + len(f.FwdList)*phys.ForwarderEntryBytes
	}
	if !m.bitsSurvive(headerBytes*8, ber) {
		m.Counters.HeaderErrors++
		dst.mac.FrameCorrupted()
		return
	}
	var pktOK []bool
	if f.Kind == pkt.Data {
		// The scratch buffer is reused across receptions: FrameReceived
		// implementations must not retain it (see the MAC contract).
		if cap(m.pktOKBuf) < len(f.Packets) {
			m.pktOKBuf = make([]bool, len(f.Packets))
		}
		pktOK = m.pktOKBuf[:len(f.Packets)]
		for i, p := range f.Packets {
			bits := (p.Bytes + phys.PerPacketCRCBytes) * 8
			pktOK[i] = m.bitsSurvive(bits, ber)
		}
	}
	m.Counters.FramesDelivered++
	if m.Trace != nil {
		m.Trace(m.eng.Now(), "rx", dst.id, f)
	}
	dst.mac.FrameReceived(f, pktOK)
}

// bitsSurvive draws whether `bits` consecutive bits all survive BER `ber`.
// The survival probability is memoized per bit length: the BER is fixed
// for the medium's lifetime and packet sizes repeat, so each distinct
// length costs math.Pow exactly once.
func (m *Medium) bitsSurvive(bits int, ber float64) bool {
	if ber <= 0 {
		return true
	}
	for _, s := range m.pOKByBits {
		if s.bits == bits {
			return m.rng.Float64() < s.pOK
		}
	}
	pOK := math.Pow(1-ber, float64(bits))
	m.pOKByBits = append(m.pOKByBits, survival{bits, pOK})
	return m.rng.Float64() < pOK
}

// survival is the memoized probability that a run of bits survives the BER.
type survival struct {
	bits int
	pOK  float64
}

// rowCache is a medium's transmit rows: for each link plan it ran on, the
// row of every station that transmitted under it (LinkPlan.appendRow), built
// the first time that station transmitted. A row is a pure function of its
// plan and station, so a row built in one run is the row the next run over
// the same plan would build, and the cache outlives Reset: a run arena that
// runs one World seed after seed builds each row once. Entries are filed
// under the plan's serial, not its address — an idle medium must not keep a
// dropped World's plans alive, and a collected plan's address can come back
// as another plan's — and there is one per plan of the World the medium ran
// last, root and epochs: at most epochs + 1, searched linearly.
type rowCache struct {
	plans []planRows
	// builds counts the rows built, over the medium's life.
	builds int
}

// planRows is the rows one plan has given its transmitters: span[i] locates
// station i's row in links, and its delay order, if it has one, in ord.
type planRows struct {
	serial uint64 // the plan's; 0 for an entry emptied for reuse
	span   []rowSpan
	links  []link
	ord    []int32
}

// rowSpan is where a built row lies in its entry: links[lo:lo+n], and its
// delay order at ord[ord-1:ord-1+n], or none when ord is 0 (the row is in
// delay order as it stands).
type rowSpan struct {
	lo, ord int
	n       int32
	built   bool
}

// adopt keeps the cache's entries when one of them is pl's — the medium is
// put on the World it ran last — and otherwise empties every entry, keeping
// its capacity for the new World's plans.
func (c *rowCache) adopt(pl *LinkPlan) {
	for i := range c.plans {
		if c.plans[i].serial == pl.serial {
			return
		}
	}
	for i := range c.plans {
		e := &c.plans[i]
		*e = planRows{span: e.span[:0], links: e.links[:0], ord: e.ord[:0]}
	}
}

// of returns pl's entry, taking an emptied one, or adding one, for a plan
// the cache has no rows of yet.
func (c *rowCache) of(pl *LinkPlan) *planRows {
	free := -1
	for i := range c.plans {
		switch c.plans[i].serial {
		case pl.serial:
			return &c.plans[i]
		case 0:
			if free < 0 {
				free = i
			}
		}
	}
	if free < 0 {
		free = len(c.plans)
		c.plans = append(c.plans, planRows{})
	}
	e := &c.plans[free]
	e.serial, e.span = pl.serial, zeroed(e.span, pl.n)
	return e
}

// row returns station i's transmit row under the current plan and its
// delay order (nil when the row is in delay order), building both the first
// time i transmits under the plan.
func (m *Medium) row(i int) ([]link, []int32) {
	e := m.cur
	s := &e.span[i]
	if !s.built {
		lo, olo := len(e.links), len(e.ord)
		e.links, e.ord = m.plan.appendRow(e.links, e.ord, i)
		*s = rowSpan{lo: lo, n: int32(len(e.links) - lo), built: true}
		if len(e.ord) > olo {
			s.ord = olo + 1
		}
		m.rows.builds++
	}
	row := e.links[s.lo : s.lo+int(s.n)]
	if s.ord == 0 {
		return row, nil
	}
	return row, e.ord[s.ord-1 : s.ord-1+int(s.n)]
}
