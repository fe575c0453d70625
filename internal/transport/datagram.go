package transport

import (
	"cmp"

	"ripple/internal/pkt"
	"ripple/internal/sim"
	"ripple/internal/stats"
)

// VoIPConfig models the paper's VoIP stream (§IV-E): an on-off source
// with exponentially distributed on and off periods, packetised at a fixed
// interval, whose arrivals count as losses past a wireless delay budget. A
// zero field selects the paper's value (Normalize); a negative or NaN
// field is refused (Check).
type VoIPConfig struct {
	BitsPerSecond  float64
	PacketInterval sim.Time
	OnMean         sim.Time
	OffMean        sim.Time
	DelayBudget    sim.Time
}

// DefaultVoIPConfig returns the paper's parameters: the zero config,
// normalised.
func DefaultVoIPConfig() VoIPConfig {
	var c VoIPConfig
	c.Normalize()
	return c
}

// Normalize fills each zero field with the paper's value: 96 kbps,
// packetised every 20 ms (240-byte payloads), on and off periods of mean
// 1.5 s, and a 52 ms delay budget.
func (c *VoIPConfig) Normalize() {
	c.BitsPerSecond = cmp.Or(c.BitsPerSecond, 96e3)
	c.PacketInterval = cmp.Or(c.PacketInterval, 20*sim.Millisecond)
	c.OnMean = cmp.Or(c.OnMean, 1500*sim.Millisecond)
	c.OffMean = cmp.Or(c.OffMean, 1500*sim.Millisecond)
	c.DelayBudget = cmp.Or(c.DelayBudget, 52*sim.Millisecond)
}

// Check passes the first field out of range to bad — its name, its value
// and the rule it breaks — and returns bad's error, or nil: no field may be
// negative or NaN, and a packet of the normalised config carries at least
// one byte.
func (c VoIPConfig) Check(bad func(field string, value any, rule string) error) error {
	const rule = "must not be negative"
	n := c
	n.Normalize()
	switch {
	case !(c.BitsPerSecond >= 0):
		return bad("BitsPerSecond", c.BitsPerSecond, rule)
	case c.PacketInterval < 0:
		return bad("PacketInterval", c.PacketInterval, rule)
	case c.OnMean < 0:
		return bad("OnMean", c.OnMean, rule)
	case c.OffMean < 0:
		return bad("OffMean", c.OffMean, rule)
	case c.DelayBudget < 0:
		return bad("DelayBudget", c.DelayBudget, rule)
	case n.PacketBytes() < 1:
		return bad("BitsPerSecond", c.BitsPerSecond, "must fill a packet of at least one byte per packet interval")
	}
	return nil
}

// PacketBytes returns the payload size implied by rate and interval.
func (c VoIPConfig) PacketBytes() int {
	return int(c.BitsPerSecond * c.PacketInterval.Seconds() / 8)
}

// VoIP is a one-way voice stream from Src to Dst.
type VoIP struct {
	eng  *sim.Engine
	cfg  VoIPConfig
	flow int
	src  pkt.NodeID
	dst  pkt.NodeID
	send SendFunc
	fs   *stats.Flow
	rng  *sim.RNG

	seq   int64
	uid   uint64
	on    bool
	onEnd sim.Time  // when the current on period ends
	timer sim.Timer // the stream's one timer, bound to wake
	pool  *pkt.Pool
	slot  int // see SetSlot
}

// NewVoIP creates a voice stream; call Start to begin the first on period.
func NewVoIP(eng *sim.Engine, cfg VoIPConfig, flow int, src, dst pkt.NodeID,
	send SendFunc, fs *stats.Flow, rng *sim.RNG) *VoIP {
	v := &VoIP{}
	v.Init(eng, cfg, flow, src, dst, send, fs, rng)
	return v
}

// Init makes v, in place, the stream NewVoIP returns: every field zero or
// set from the arguments (cfg normalised), except the timer, which stays
// bound when v was initialised before — at this address, on this engine,
// Reset since.
func (v *VoIP) Init(eng *sim.Engine, cfg VoIPConfig, flow int, src, dst pkt.NodeID,
	send SendFunc, fs *stats.Flow, rng *sim.RNG) {
	cfg.Normalize()
	if !v.timer.Bound() {
		v.timer.Bind(eng, v.wake)
	}
	*v = VoIP{eng: eng, cfg: cfg, flow: flow, src: src, dst: dst, send: send, fs: fs, rng: rng,
		timer: v.timer}
}

// SetPool makes the stream draw its packets from a per-run pool (see
// TCP.SetPool); nil keeps plain allocation.
func (v *VoIP) SetPool(pl *pkt.Pool) { v.pool = pl }

// SetSlot makes the stream the flow at index i of its run: its packets
// carry stream pkt.StreamOf(i, 0). Zero is the default.
func (v *VoIP) SetSlot(i int) { v.slot = i }

// Start begins the on-off cycle.
func (v *VoIP) Start() { v.beginOn() }

func (v *VoIP) beginOn() {
	v.on = true
	dur := sim.Time(v.rng.Exp(float64(v.cfg.OnMean)))
	v.onEnd = v.eng.Now() + dur
	v.timer.Arm(0)
}

// wake is the timer's callback: the next packet of an on period, or the end
// of an off period.
func (v *VoIP) wake() {
	if v.on {
		v.tick()
	} else {
		v.beginOn()
	}
}

func (v *VoIP) tick() {
	if v.eng.Now() >= v.onEnd {
		v.on = false
		off := sim.Time(v.rng.Exp(float64(v.cfg.OffMean)))
		v.timer.Arm(off)
		return
	}
	v.emit()
	v.timer.Arm(v.cfg.PacketInterval)
}

func (v *VoIP) emit() {
	v.seq++
	v.uid++
	v.fs.VoIPSent++
	var p *pkt.Packet
	if v.pool != nil {
		p = v.pool.Get()
	} else {
		p = &pkt.Packet{}
	}
	p.UID = uint64(v.flow)<<33 | 1<<31 | v.uid
	p.FlowID = v.flow
	p.Stream = pkt.StreamOf(v.slot, 0)
	p.Seq = v.seq
	p.Bytes = v.cfg.PacketBytes()
	p.Src = v.src
	p.Dst = v.dst
	p.Created = v.eng.Now()
	v.send(p)
}

// Receive records a voice packet arriving at the destination.
func (v *VoIP) Receive(at pkt.NodeID, p *pkt.Packet) {
	if at != v.dst {
		return
	}
	delay := v.eng.Now() - p.Created
	v.fs.NoteArrival(p.Seq, delay)
	v.fs.VoIPArrived++
	v.fs.AppBytes += int64(p.Bytes)
	if delay <= v.cfg.DelayBudget {
		v.fs.VoIPOnTime++
	}
}

// CBR is a constant-bit-rate datagram source, used for the hidden-terminal
// interferer flows. An interval of zero selects backlogged mode: the source
// keeps the sender's MAC queue full (refilled every millisecond), modelling
// the paper's "sending 5×10⁶ packets during the simulations" interferers
// without simulating millions of rejected enqueues.
type CBR struct {
	eng      *sim.Engine
	flow     int
	src, dst pkt.NodeID
	bytes    int
	interval sim.Time
	send     SendFunc
	fs       *stats.Flow

	seq   int64
	uid   uint64
	timer sim.Timer // the source's one timer, bound to emit
	pool  *pkt.Pool
	slot  int // see SetSlot
}

// backlogRefill is the refill period of backlogged mode.
const backlogRefill = sim.Millisecond

// backlogBurst caps packets pushed per refill.
const backlogBurst = 64

// Init makes c, in place, a CBR source emitting `bytes`-sized packets every
// interval, or a backlogged (saturating) source when interval is zero: every
// field zero or set from the arguments, except the timer, which stays bound
// when c was initialised before — at this address, on this engine, Reset
// since.
func (c *CBR) Init(eng *sim.Engine, flow int, src, dst pkt.NodeID, bytes int,
	interval sim.Time, send SendFunc, fs *stats.Flow) {
	if !c.timer.Bound() {
		c.timer.Bind(eng, c.emit)
	}
	*c = CBR{eng: eng, flow: flow, src: src, dst: dst, bytes: bytes,
		interval: interval, send: send, fs: fs, timer: c.timer}
}

// SetPool makes the source draw its packets from a per-run pool (see
// TCP.SetPool); nil keeps plain allocation. Backlogged CBR is the pool's
// best customer: packets rejected by the saturated MAC queue recycle
// immediately, so the refill loop stops allocating at all.
func (c *CBR) SetPool(pl *pkt.Pool) { c.pool = pl }

// SetSlot makes the source the flow at index i of its run (see
// VoIP.SetSlot).
func (c *CBR) SetSlot(i int) { c.slot = i }

// Start begins emission.
func (c *CBR) Start() { c.emit() }

// emit is the timer's callback: one packet of a paced source, or one refill
// of a backlogged one.
func (c *CBR) emit() {
	if c.interval == 0 {
		c.refill()
		return
	}
	c.tick()
}

func (c *CBR) tick() {
	c.send(c.packet())
	c.timer.Arm(c.interval)
}

func (c *CBR) refill() {
	for i := 0; i < backlogBurst; i++ {
		if !c.send(c.packet()) {
			break // queue full: the MAC is saturated
		}
	}
	c.timer.Arm(backlogRefill)
}

func (c *CBR) packet() *pkt.Packet {
	c.seq++
	c.uid++
	var p *pkt.Packet
	if c.pool != nil {
		p = c.pool.Get()
	} else {
		p = &pkt.Packet{}
	}
	p.UID = uint64(c.flow)<<33 | 1<<30 | c.uid
	p.FlowID = c.flow
	p.Stream = pkt.StreamOf(c.slot, 0)
	p.Seq = c.seq
	p.Bytes = c.bytes
	p.Src = c.src
	p.Dst = c.dst
	p.Created = c.eng.Now()
	return p
}

// Receive records a datagram arriving at the destination.
func (c *CBR) Receive(at pkt.NodeID, p *pkt.Packet) {
	if at != c.dst {
		return
	}
	c.fs.NoteArrival(p.Seq, c.eng.Now()-p.Created)
	c.fs.AppBytes += int64(p.Bytes)
}
