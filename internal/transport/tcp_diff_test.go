package transport

import (
	"fmt"
	"testing"

	"ripple/internal/pkt"
	"ripple/internal/sim"
	"ripple/internal/stats"
)

// The differential test: TCP and a reference written here with plain maps
// run the same scripted connection — seeded loss, reordering inside a
// window, duplication, a transfer loop with resets — and must agree on every
// emitted packet and, after every delivery, on the whole observable state.
// The reference fixes the window bookkeeping's semantics: txTime holds the
// send time of every segment sent once and not yet covered by a cumulative
// ACK (Karn's rule deletes a retransmitted one, a new transfer clears it),
// rcvBuf the segments received above the next expected one.

// tcpHeader reads the transport header off a packet of the connection: a
// data segment's sequence number, or an acknowledgement's cumulative number.
func tcpHeader(p *pkt.Packet) (isAck bool, seq, ack int64) {
	if p.TCP.IsAck {
		return true, 0, p.TCP.Ack
	}
	return false, p.Seq, 0
}

// tcpPacket builds what the connection under test would emit.
func tcpPacket(now sim.Time, src, dst pkt.NodeID, isAck bool, seq, ack int64) *pkt.Packet {
	return &pkt.Packet{Src: src, Dst: dst, Created: now, Seq: seq, TCP: pkt.TCPHeader{IsAck: isAck, Ack: ack}}
}

// tcpState is everything the two implementations must agree on.
type tcpState struct {
	now                    sim.Time
	cwnd, ssthresh         float64
	seqUna, seqNext        int64
	srtt, rttvar, rto      sim.Time
	rttValid, inRecovery   bool
	rcvExpected            int64
	appBytes, dups, xfers  int64
	emitAck                bool
	emitSeq, emitAckNumber int64
}

// endpoint is what the script drives: the connection or the reference.
type endpoint interface {
	StartTransfer(n int64, onDone func())
	Receive(at pkt.NodeID, p *pkt.Packet)
	state() tcpState
}

type realTCP struct {
	*TCP
	fs *stats.Flow
}

func (r realTCP) state() tcpState {
	t := r.TCP
	return tcpState{
		cwnd: t.cwnd, ssthresh: t.ssthresh, seqUna: t.seqUna, seqNext: t.seqNext,
		srtt: t.srtt, rttvar: t.rttvar, rto: t.rto, rttValid: t.rttValid,
		inRecovery: t.inRecovery, rcvExpected: t.rcvExpected,
		appBytes: r.fs.AppBytes, dups: r.fs.Duplicates, xfers: r.fs.TransfersCompleted,
	}
}

// refTCP is the reference: the NewReno sender and cumulative-ACK receiver of
// tcp.go with its window bookkeeping in maps.
type refTCP struct {
	eng              *sim.Engine
	cfg              TCPConfig
	sendSrc, sendDst SendFunc

	cwnd, ssthresh    float64
	seqNext, seqUna   int64
	recover           int64
	dupacks           int
	inRecovery        bool
	srtt, rttvar, rto sim.Time
	rttValid          bool
	rtoEv             *sim.Event
	txTime            map[int64]sim.Time
	limit             int64
	done              bool
	onDone            func()

	rcvExpected           int64
	rcvBuf                map[int64]bool
	appBytes, dups, xfers int64
}

func newRefTCP(eng *sim.Engine, cfg TCPConfig, sendSrc, sendDst SendFunc) *refTCP {
	r := &refTCP{eng: eng, cfg: cfg, sendSrc: sendSrc, sendDst: sendDst,
		txTime: map[int64]sim.Time{}, rcvBuf: map[int64]bool{}, limit: -1}
	r.reset()
	return r
}

func (r *refTCP) state() tcpState {
	return tcpState{
		cwnd: r.cwnd, ssthresh: r.ssthresh, seqUna: r.seqUna, seqNext: r.seqNext,
		srtt: r.srtt, rttvar: r.rttvar, rto: r.rto, rttValid: r.rttValid,
		inRecovery: r.inRecovery, rcvExpected: r.rcvExpected,
		appBytes: r.appBytes, dups: r.dups, xfers: r.xfers,
	}
}

func (r *refTCP) reset() {
	r.cwnd, r.ssthresh = r.cfg.InitialCwnd, r.cfg.SSThresh
	r.dupacks, r.inRecovery = 0, false
	r.srtt, r.rttvar, r.rttValid = 0, 0, false
	r.rto = r.cfg.RTOInit
	r.done = false
	r.txTime = map[int64]sim.Time{}
}

func (r *refTCP) StartTransfer(n int64, onDone func()) {
	r.reset()
	r.limit = r.seqNext + n
	r.onDone = onDone
	r.trySend()
}

func (r *refTCP) Receive(at pkt.NodeID, p *pkt.Packet) {
	isAck, seq, ack := tcpHeader(p)
	if isAck && at == 0 {
		r.onAck(ack)
	} else if !isAck && at == 1 {
		r.onData(seq)
	}
}

func (r *refTCP) window() int64 {
	w := int64(r.cwnd)
	if w < 1 {
		w = 1
	}
	if max := int64(r.cfg.MaxCwnd); w > max {
		w = max
	}
	return w
}

func (r *refTCP) trySend() {
	if r.done {
		return
	}
	for r.seqNext < r.seqUna+r.window() && (r.limit < 0 || r.seqNext < r.limit) {
		r.seqNext++
		r.emitData(r.seqNext-1, true)
	}
	r.armRTO()
}

func (r *refTCP) emitData(seq int64, fresh bool) {
	if fresh {
		r.txTime[seq] = r.eng.Now()
	} else {
		delete(r.txTime, seq)
	}
	r.sendSrc(tcpPacket(r.eng.Now(), 0, 1, false, seq, 0))
}

func (r *refTCP) onAck(ack int64) {
	if r.done {
		return
	}
	switch {
	case ack > r.seqUna:
		newly := ack - r.seqUna
		if sent, ok := r.txTime[ack-1]; ok {
			r.sample(r.eng.Now() - sent)
		}
		r.seqUna = ack
		r.dupacks = 0
		if r.inRecovery {
			if ack >= r.recover {
				r.inRecovery = false
				r.cwnd = r.ssthresh
			} else {
				r.emitData(r.seqUna, false)
				r.cwnd -= float64(newly)
				if r.cwnd < 1 {
					r.cwnd = 1
				}
				r.cwnd++
			}
		} else {
			for i := int64(0); i < newly; i++ {
				if r.cwnd < r.ssthresh {
					r.cwnd++
				} else {
					r.cwnd += 1 / r.cwnd
				}
			}
			if r.cwnd > r.cfg.MaxCwnd {
				r.cwnd = r.cfg.MaxCwnd
			}
		}
		for seq := range r.txTime {
			if seq < ack {
				delete(r.txTime, seq)
			}
		}
		if r.limit >= 0 && r.seqUna >= r.limit {
			r.done = true
			r.eng.Cancel(r.rtoEv)
			r.xfers++
			if done := r.onDone; done != nil {
				r.onDone = nil
				done()
			}
			return
		}
		r.armRTO()
		r.trySend()
	case ack == r.seqUna:
		r.dupacks++
		if !r.inRecovery && r.dupacks == r.cfg.DupThresh {
			r.ssthresh = maxf(r.cwnd/2, 2)
			r.cwnd = r.ssthresh + float64(r.cfg.DupThresh)
			r.inRecovery = true
			r.recover = r.seqNext
			r.emitData(r.seqUna, false)
		} else if r.inRecovery {
			r.cwnd++
			r.trySend()
		}
	}
}

func (r *refTCP) sample(m sim.Time) {
	if !r.rttValid {
		r.srtt, r.rttvar, r.rttValid = m, m/2, true
	} else {
		d := r.srtt - m
		if d < 0 {
			d = -d
		}
		r.rttvar = (3*r.rttvar + d) / 4
		r.srtt = (7*r.srtt + m) / 8
	}
	r.rto = r.srtt + 4*r.rttvar
	if r.rto < r.cfg.RTOMin {
		r.rto = r.cfg.RTOMin
	}
	if r.rto > r.cfg.RTOMax {
		r.rto = r.cfg.RTOMax
	}
}

func (r *refTCP) armRTO() {
	r.eng.Cancel(r.rtoEv)
	if r.seqUna != r.seqNext {
		r.rtoEv = r.eng.After(r.rto, r.onRTO)
	}
}

func (r *refTCP) onRTO() {
	if r.done || r.seqUna == r.seqNext {
		return
	}
	r.ssthresh = maxf(r.cwnd/2, 2)
	r.cwnd = 1
	r.dupacks = 0
	r.inRecovery = false
	r.rto *= 2
	if r.rto > r.cfg.RTOMax {
		r.rto = r.cfg.RTOMax
	}
	r.emitData(r.seqUna, false)
	r.armRTO()
}

func (r *refTCP) onData(seq int64) {
	switch {
	case seq == r.rcvExpected:
		r.rcvExpected++
		r.appBytes += int64(r.cfg.MSS)
		for r.rcvBuf[r.rcvExpected] {
			delete(r.rcvBuf, r.rcvExpected)
			r.rcvExpected++
			r.appBytes += int64(r.cfg.MSS)
		}
	case seq > r.rcvExpected:
		r.rcvBuf[seq] = true
	default:
		r.dups++
	}
	r.sendDst(tcpPacket(r.eng.Now(), 1, 0, true, 0, r.rcvExpected))
}

// tcpScript is one scripted connection: the channel's behaviour and the
// transfer loop, all drawn from seed.
type tcpScript struct {
	seed      uint64
	cfg       TCPConfig
	loss, dup float64
	// spread is how far apart two packets sent together may arrive: above
	// zero, anything inside one window can overtake anything else.
	spread sim.Time
	// resets is how many transfers start while the previous one is still
	// running (on top of those started when one completes).
	resets int
}

// scriptLen is the simulated length of one script.
const scriptLen = 4 * sim.Second

// run plays the script against one endpoint and returns its trace: one
// state per emitted packet and per delivery.
func (s tcpScript) run(build func(eng *sim.Engine, sendSrc, sendDst SendFunc) endpoint) []tcpState {
	eng := sim.NewEngine()
	channel := sim.NewRNG(s.seed, 1)
	driver := sim.NewRNG(s.seed, 2)
	var ep endpoint
	var trace []tcpState
	send := func(p *pkt.Packet) bool {
		isAck, seq, ack := tcpHeader(p)
		trace = append(trace, tcpState{now: eng.Now(), emitAck: isAck, emitSeq: seq, emitAckNumber: ack})
		if channel.Float64() < s.loss {
			return true
		}
		copies := 1
		if channel.Float64() < s.dup {
			copies = 2
		}
		for i := 0; i < copies; i++ {
			d := sim.Millisecond
			if s.spread > 0 {
				d += sim.Time(channel.IntN(int(s.spread)))
			}
			q := *p // the connection may recycle p; the channel keeps its own copy
			eng.After(d, func() {
				ep.Receive(q.Dst, &q)
				st := ep.state()
				st.now = eng.Now()
				trace = append(trace, st)
			})
		}
		return true
	}
	ep = build(eng, send, send)

	var next func()
	next = func() {
		n := int64(1 + driver.IntN(3*int(s.cfg.MaxCwnd)+4))
		ep.StartTransfer(n, func() {
			eng.After(sim.Time(driver.IntN(int(30*sim.Millisecond))), next)
		})
	}
	next()
	for i := 0; i < s.resets; i++ {
		eng.At(sim.Time(driver.IntN(int(scriptLen))), next)
	}
	eng.Run(scriptLen)
	return trace
}

func TestTCPMatchesMapReference(t *testing.T) {
	seeds := uint64(24)
	if testing.Short() {
		seeds = 6
	}
	for _, maxCwnd := range []float64{1, 42, 200} {
		cfg := DefaultTCPConfig()
		cfg.MaxCwnd = maxCwnd
		cfg.SSThresh = maxCwnd/2 + 1 // both slow start and congestion avoidance
		// Short timeouts keep a lossy script busy instead of backed off.
		cfg.RTOInit, cfg.RTOMax = 200*sim.Millisecond, 400*sim.Millisecond
		var recoveries, dups int64
		for seed := uint64(1); seed <= seeds; seed++ {
			s := tcpScript{
				seed: seed, cfg: cfg,
				loss:   []float64{0, 0.005, 0.02, 0.06}[seed%4],
				dup:    []float64{0, 0.05, 0.2}[seed%3],
				spread: []sim.Time{0, 300 * sim.Microsecond, 4 * sim.Millisecond}[(seed/2)%3],
				resets: int(seed % 5),
			}
			name := fmt.Sprintf("maxcwnd=%g/seed=%d", maxCwnd, seed)
			got := s.run(func(eng *sim.Engine, sendSrc, sendDst SendFunc) endpoint {
				fs := &stats.Flow{ID: 1}
				return realTCP{NewTCP(eng, cfg, 1, 0, 1, sendSrc, sendDst, fs), fs}
			})
			want := s.run(func(eng *sim.Engine, sendSrc, sendDst SendFunc) endpoint {
				return newRefTCP(eng, cfg, sendSrc, sendDst)
			})
			if len(got) < 300 {
				t.Errorf("%s: only %d trace records: the script is too quiet to compare", name, len(got))
			}
			for i := 0; i < len(got) && i < len(want); i++ {
				if got[i] != want[i] {
					t.Fatalf("%s: record %d diverges\n got  %+v\n want %+v", name, i, got[i], want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d trace records, reference has %d", name, len(got), len(want))
			}
			var scriptDups int64
			for _, st := range got {
				if st.inRecovery {
					recoveries++
				}
				scriptDups = max(scriptDups, st.dups)
			}
			dups += scriptDups
		}
		if maxCwnd > 1 && (recoveries == 0 || dups == 0) {
			t.Errorf("maxcwnd=%g: %d records in fast recovery, %d duplicate segments: the scripts miss a path",
				maxCwnd, recoveries, dups)
		}
	}
}
