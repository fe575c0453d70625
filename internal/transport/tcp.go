// Package transport implements the end-to-end protocols the paper drives
// its schemes with: a packet-based TCP Reno/NewReno (matching the NS-2 TCP
// agent's behaviour, including the dupack sensitivity to reordering that
// penalises preExOR/MCExOR), a VoIP stream source, and a saturated CBR
// datagram source.
package transport

import (
	"cmp"
	"fmt"

	"ripple/internal/pkt"
	"ripple/internal/sim"
	"ripple/internal/stats"
)

// SendFunc injects a packet into a node's MAC send queue; it reports false
// when the interface queue was full and the packet was dropped.
type SendFunc func(*pkt.Packet) bool

// TCPConfig tunes the TCP model: the NS-2 style agent the paper drives its
// schemes with. A zero field selects the paper's value (Normalize), so a
// config sets only the fields it changes; a negative or NaN field is
// refused (Check).
type TCPConfig struct {
	MSS         int     // data packet payload bytes
	AckBytes    int     // ACK packet bytes
	InitialCwnd float64 // packets
	MaxCwnd     float64 // receiver window, packets
	SSThresh    float64 // initial slow-start threshold, packets
	DupThresh   int     // dupacks triggering fast retransmit
	RTOMin      sim.Time
	RTOInit     sim.Time
	RTOMax      sim.Time
}

// DefaultTCPConfig returns the configuration used by all experiments: the
// zero config, normalised.
func DefaultTCPConfig() TCPConfig {
	var c TCPConfig
	c.Normalize()
	return c
}

// Normalize fills each zero field with the paper's value: 1000-byte
// packets, 40-byte ACKs, an initial window of 2 packets, a receiver window
// and initial slow-start threshold of 42, fast retransmit at 3 dupacks, and
// a retransmission timeout starting at 1 s, kept within 200 ms and 60 s.
func (c *TCPConfig) Normalize() {
	c.MSS = cmp.Or(c.MSS, 1000)
	c.AckBytes = cmp.Or(c.AckBytes, 40)
	c.InitialCwnd = cmp.Or(c.InitialCwnd, 2)
	// The receiver window stays below the 50-packet interface queue
	// (Table I) so a single flow does not tail-drop its own queue; it is
	// still deep enough to fill 16-packet aggregate frames.
	c.MaxCwnd = cmp.Or(c.MaxCwnd, 42)
	c.SSThresh = cmp.Or(c.SSThresh, 42)
	c.DupThresh = cmp.Or(c.DupThresh, 3)
	c.RTOMin = cmp.Or(c.RTOMin, 200*sim.Millisecond)
	c.RTOInit = cmp.Or(c.RTOInit, sim.Second)
	c.RTOMax = cmp.Or(c.RTOMax, 60*sim.Second)
}

// maxWindow bounds TCPConfig.MaxCwnd: a connection sizes its window rings
// from it up front (65535 is TCP's unscaled window field, here in packets;
// the 50-packet interface queue drops far earlier).
const maxWindow = 1<<16 - 1

// Check passes the first field out of range to bad — its name, its value
// and the rule it breaks — and returns bad's error, or nil: no field may be
// negative or NaN, and MaxCwnd may not exceed the window the rings can hold.
func (c TCPConfig) Check(bad func(field string, value any, rule string) error) error {
	const rule = "must not be negative"
	switch {
	case c.MSS < 0:
		return bad("MSS", c.MSS, rule)
	case c.AckBytes < 0:
		return bad("AckBytes", c.AckBytes, rule)
	case !(c.InitialCwnd >= 0):
		return bad("InitialCwnd", c.InitialCwnd, rule)
	case !(c.MaxCwnd >= 0):
		return bad("MaxCwnd", c.MaxCwnd, rule)
	case c.MaxCwnd != 0 && c.MaxCwnd < 1:
		return bad("MaxCwnd", c.MaxCwnd, "must be 0 (the paper's value) or at least 1 packet")
	case c.MaxCwnd > maxWindow:
		return bad("MaxCwnd", c.MaxCwnd, fmt.Sprintf("must not exceed %d packets", maxWindow))
	case !(c.SSThresh >= 0):
		return bad("SSThresh", c.SSThresh, rule)
	case c.DupThresh < 0:
		return bad("DupThresh", c.DupThresh, rule)
	case c.RTOMin < 0:
		return bad("RTOMin", c.RTOMin, rule)
	case c.RTOInit < 0:
		return bad("RTOInit", c.RTOInit, rule)
	case c.RTOMax < 0:
		return bad("RTOMax", c.RTOMax, rule)
	}
	return nil
}

// TCP is one bidirectional TCP connection: the sender half lives at Src,
// the receiver half at Dst; ACKs flow back through the same network.
type TCP struct {
	eng     *sim.Engine
	cfg     TCPConfig
	flow    int
	src     pkt.NodeID
	dst     pkt.NodeID
	sendSrc SendFunc
	sendDst SendFunc
	fs      *stats.Flow

	// Sender state.
	cwnd       float64
	ssthresh   float64
	seqNext    int64
	seqUna     int64
	recover    int64
	dupacks    int
	inRecovery bool
	srtt       sim.Time
	rttvar     sim.Time
	rto        sim.Time
	rttValid   bool
	rtoTimer   sim.Timer
	txTime     []txStamp // send-time ring, see NewTCP
	limit      int64     // packets in the current transfer; -1 = unbounded
	done       bool
	onDone     func()

	// Receiver state.
	rcvExpected int64
	rcvBuf      []int64 // out-of-order ring of sequence-number tags, see NewTCP
	ackEmit     int64   // ack-stream sequence counter (for Rq ordering)

	uidData uint64
	uidAck  uint64

	// pool, when set, recycles packet structs (see SetPool); slot is the
	// flow's index in the run (see SetSlot).
	pool *pkt.Pool
	slot int
}

// txStamp is one slot of the send-time ring: segment seq was sent, once, at
// time at.
type txStamp struct {
	seq int64
	at  sim.Time
}

// noSeq tags an empty ring slot.
const noSeq = -1

// NewTCP creates a connection for the given flow between src and dst.
// sendSrc/sendDst inject packets at the two endpoint nodes; fs receives
// receiver-side statistics.
//
// Both halves of the window live in rings of the next power of two above
// MaxCwnd, indexed by seq&mask, each slot tagged with the sequence number it
// holds; a slot whose tag is not the number asked for is absent. The segments
// whose send time matters are the outstanding ones, [seqUna, seqNext), and
// the ones buffered out of order lie in (rcvExpected, rcvExpected+MaxCwnd):
// both spans are narrower than the ring, so two live entries never share a
// slot, and an entry the window has moved past is never asked for again — it
// needs no removal, the slot's next tenant overwrites it.
func NewTCP(eng *sim.Engine, cfg TCPConfig, flow int, src, dst pkt.NodeID,
	sendSrc, sendDst SendFunc, fs *stats.Flow) *TCP {
	t := &TCP{}
	t.Init(eng, cfg, flow, src, dst, sendSrc, sendDst, fs)
	return t
}

// Init makes t, in place, the connection NewTCP returns: every field zero
// or set from the arguments (cfg normalised), except the two rings, kept
// when they are the size cfg asks for, and the retransmission timer, which
// stays bound when t was initialised before — at this address, on this
// engine, Reset since.
func (t *TCP) Init(eng *sim.Engine, cfg TCPConfig, flow int, src, dst pkt.NodeID,
	sendSrc, sendDst SendFunc, fs *stats.Flow) {
	cfg.Normalize()
	size := 1
	for size <= int(cfg.MaxCwnd) {
		size <<= 1
	}
	txTime, rcvBuf := t.txTime, t.rcvBuf
	if len(txTime) != size {
		txTime, rcvBuf = make([]txStamp, size), make([]int64, size)
	}
	if !t.rtoTimer.Bound() {
		t.rtoTimer.Bind(eng, t.onRTO)
	}
	*t = TCP{
		eng: eng, cfg: cfg, flow: flow, src: src, dst: dst,
		sendSrc: sendSrc, sendDst: sendDst, fs: fs,
		txTime: txTime, rcvBuf: rcvBuf, rtoTimer: t.rtoTimer,
		limit: -1,
	}
	for i := range t.rcvBuf {
		t.rcvBuf[i] = noSeq
	}
	t.resetConnection()
}

// SetPool makes the connection draw its packets from a per-run pool
// instead of allocating each one. The packets recycle at their terminal
// delivery/drop points in the MAC layer; nil (the default) keeps plain
// allocation.
func (t *TCP) SetPool(pl *pkt.Pool) { t.pool = pl }

// SetSlot makes the connection the flow at index i of its run: data
// segments carry stream pkt.StreamOf(i, 0), ACKs pkt.StreamOf(i, 1). Zero
// is the default.
func (t *TCP) SetSlot(i int) { t.slot = i }

// newPacket draws from the pool when one is attached.
func (t *TCP) newPacket() *pkt.Packet {
	if t.pool != nil {
		return t.pool.Get()
	}
	return &pkt.Packet{}
}

// resetConnection restores fresh congestion state (new slow start, RTO)
// while keeping sequence numbers monotonic — web traffic models each
// transfer as a new connection, but monotonic sequence numbers keep the
// MAC-layer resequencing queues consistent across transfers.
func (t *TCP) resetConnection() {
	t.cwnd = t.cfg.InitialCwnd
	t.ssthresh = t.cfg.SSThresh
	t.dupacks = 0
	t.inRecovery = false
	t.srtt, t.rttvar = 0, 0
	t.rttValid = false
	t.rto = t.cfg.RTOInit
	t.done = false
	for i := range t.txTime {
		t.txTime[i].seq = noSeq
	}
}

// Start begins an unbounded (FTP-style) transfer.
func (t *TCP) Start() { t.limit = -1; t.trySend() }

// StartTransfer begins a bounded transfer of n packets; onDone fires when
// the last packet is cumulatively acknowledged.
func (t *TCP) StartTransfer(n int64, onDone func()) {
	t.resetConnection()
	t.limit = t.seqNext + n
	t.onDone = onDone
	t.trySend()
}

// Receive dispatches a packet arriving at one of the connection endpoints.
func (t *TCP) Receive(at pkt.NodeID, p *pkt.Packet) {
	if p.TCP.IsAck && at == t.src {
		t.onAck(p.TCP.Ack)
		return
	}
	if !p.TCP.IsAck && at == t.dst {
		t.onData(p)
	}
}

// --- sender ---

func (t *TCP) window() int64 {
	w := int64(t.cwnd)
	if w < 1 {
		w = 1
	}
	if max := int64(t.cfg.MaxCwnd); w > max {
		w = max
	}
	return w
}

func (t *TCP) trySend() {
	if t.done {
		return
	}
	for t.seqNext < t.seqUna+t.window() && (t.limit < 0 || t.seqNext < t.limit) {
		seq := t.seqNext
		t.seqNext++
		t.emitData(seq, true)
	}
	t.armRTO()
}

func (t *TCP) emitData(seq int64, fresh bool) {
	t.uidData++
	p := t.newPacket()
	p.UID = uint64(t.flow)<<33 | t.uidData
	p.FlowID = t.flow
	p.Stream = pkt.StreamOf(t.slot, 0)
	p.Seq = seq
	p.Bytes = t.cfg.MSS
	p.Src = t.src
	p.Dst = t.dst
	p.Created = t.eng.Now()
	slot := &t.txTime[seq&int64(len(t.txTime)-1)]
	if fresh {
		*slot = txStamp{seq: seq, at: t.eng.Now()}
	} else if slot.seq == seq {
		slot.seq = noSeq // Karn: never sample a retransmitted segment
	}
	t.sendSrc(p)
}

func (t *TCP) onAck(ack int64) {
	if t.done {
		return
	}
	switch {
	case ack > t.seqUna:
		newly := ack - t.seqUna
		t.sampleRTT(ack - 1)
		t.seqUna = ack
		t.dupacks = 0
		if t.inRecovery {
			if ack >= t.recover {
				// Full ack: leave fast recovery (NewReno).
				t.inRecovery = false
				t.cwnd = t.ssthresh
			} else {
				// Partial ack: retransmit the next hole, deflate.
				t.emitData(t.seqUna, false)
				t.cwnd -= float64(newly)
				if t.cwnd < 1 {
					t.cwnd = 1
				}
				t.cwnd++
			}
		} else {
			for i := int64(0); i < newly; i++ {
				if t.cwnd < t.ssthresh {
					t.cwnd++ // slow start
				} else {
					t.cwnd += 1 / t.cwnd // congestion avoidance
				}
			}
			if t.cwnd > t.cfg.MaxCwnd {
				t.cwnd = t.cfg.MaxCwnd
			}
		}
		if t.limit >= 0 && t.seqUna >= t.limit {
			t.finish()
			return
		}
		t.armRTO()
		t.trySend()

	case ack == t.seqUna:
		t.dupacks++
		if !t.inRecovery && t.dupacks == t.cfg.DupThresh {
			// Fast retransmit + fast recovery.
			t.ssthresh = maxf(t.cwnd/2, 2)
			t.cwnd = t.ssthresh + float64(t.cfg.DupThresh)
			t.inRecovery = true
			t.recover = t.seqNext
			t.emitData(t.seqUna, false)
		} else if t.inRecovery {
			t.cwnd++ // window inflation per extra dupack
			t.trySend()
		}
	}
}

// sampleRTT feeds the estimator with segment seq's round trip, if seq was
// sent exactly once. seq is the last segment a new cumulative ACK covers, so
// it lies in the outstanding window.
func (t *TCP) sampleRTT(seq int64) {
	stamp := t.txTime[seq&int64(len(t.txTime)-1)]
	if stamp.seq != seq {
		return
	}
	m := t.eng.Now() - stamp.at
	if !t.rttValid {
		t.srtt = m
		t.rttvar = m / 2
		t.rttValid = true
	} else {
		d := t.srtt - m
		if d < 0 {
			d = -d
		}
		t.rttvar = (3*t.rttvar + d) / 4
		t.srtt = (7*t.srtt + m) / 8
	}
	t.rto = t.srtt + 4*t.rttvar
	if t.rto < t.cfg.RTOMin {
		t.rto = t.cfg.RTOMin
	}
	// Clamp above as well: a cumulative ACK can cover a segment whose
	// (never-retransmitted, so Karn-valid) timestamp predates a long
	// recovery stall, yielding a grossly inflated sample.
	if t.rto > t.cfg.RTOMax {
		t.rto = t.cfg.RTOMax
	}
}

func (t *TCP) armRTO() {
	if t.seqUna == t.seqNext {
		t.rtoTimer.Stop() // nothing outstanding
		return
	}
	t.rtoTimer.Arm(t.rto)
}

func (t *TCP) onRTO() {
	if t.done || t.seqUna == t.seqNext {
		return
	}
	t.ssthresh = maxf(t.cwnd/2, 2)
	t.cwnd = 1
	t.dupacks = 0
	t.inRecovery = false
	t.rto *= 2
	if t.rto > t.cfg.RTOMax {
		t.rto = t.cfg.RTOMax
	}
	t.emitData(t.seqUna, false)
	t.armRTO()
}

func (t *TCP) finish() {
	t.done = true
	t.rtoTimer.Stop()
	t.fs.TransfersCompleted++
	if t.onDone != nil {
		done := t.onDone
		t.onDone = nil
		done()
	}
}

// --- receiver ---

func (t *TCP) onData(p *pkt.Packet) {
	seq := p.Seq
	t.fs.NoteArrival(seq, t.eng.Now()-p.Created)
	mask := int64(len(t.rcvBuf) - 1)
	switch {
	case seq == t.rcvExpected:
		t.rcvExpected++
		t.fs.AppBytes += int64(t.cfg.MSS)
		for t.rcvBuf[t.rcvExpected&mask] == t.rcvExpected {
			t.rcvBuf[t.rcvExpected&mask] = noSeq
			t.rcvExpected++
			t.fs.AppBytes += int64(t.cfg.MSS)
		}
	case seq > t.rcvExpected:
		if seq-t.rcvExpected > mask {
			// The sender never runs more than MaxCwnd ahead of what it has
			// seen acknowledged; beyond the ring the slot would alias.
			panic(fmt.Sprintf("transport: flow %d segment %d is %d ahead of the next expected %d, past the %d-segment receive window",
				t.flow, seq, seq-t.rcvExpected, t.rcvExpected, len(t.rcvBuf)))
		}
		t.rcvBuf[seq&mask] = seq
	default:
		t.fs.Duplicates++
	}
	t.emitAck()
}

func (t *TCP) emitAck() {
	t.uidAck++
	t.ackEmit++
	p := t.newPacket()
	p.UID = uint64(t.flow)<<33 | 1<<32 | t.uidAck
	p.FlowID = t.flow
	p.Stream = pkt.StreamOf(t.slot, 1)
	p.Seq = t.ackEmit
	p.Bytes = t.cfg.AckBytes
	p.Src = t.dst
	p.Dst = t.src
	p.Created = t.eng.Now()
	p.TCP = pkt.TCPHeader{IsAck: true, Ack: t.rcvExpected}
	t.sendDst(p)
}

// MSS is the connection's data packet payload in bytes.
func (t *TCP) MSS() int { return t.cfg.MSS }

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
