package transport

import (
	"testing"

	"ripple/internal/pkt"
	"ripple/internal/sim"
	"ripple/internal/stats"
)

func TestVoIPPacketSize(t *testing.T) {
	cfg := DefaultVoIPConfig()
	// 96 kbps × 20 ms / 8 = 240 bytes.
	if got := cfg.PacketBytes(); got != 240 {
		t.Fatalf("PacketBytes = %d, want 240", got)
	}
}

func TestVoIPOnOffRate(t *testing.T) {
	eng := sim.NewEngine()
	fs := &stats.Flow{ID: 1}
	var delivered int
	send := func(p *pkt.Packet) bool {
		delivered++
		eng.After(sim.Millisecond, func() {}) // keep engine alive
		return true
	}
	v := NewVoIP(eng, DefaultVoIPConfig(), 1, 0, 1, send, fs, sim.NewRNG(1, 1))
	v.Start()
	eng.Run(20 * sim.Second)
	// On-off with equal means → ~50% duty cycle → ≈500 packets in 20 s.
	if delivered < 250 || delivered > 750 {
		t.Fatalf("voip emitted %d packets over 20s, want ≈500", delivered)
	}
	if fs.VoIPSent != int64(delivered) {
		t.Fatalf("VoIPSent = %d, emitted %d", fs.VoIPSent, delivered)
	}
}

func TestVoIPLateArrivalCountsAsLoss(t *testing.T) {
	eng := sim.NewEngine()
	fs := &stats.Flow{ID: 1}
	cfg := DefaultVoIPConfig()
	v := NewVoIP(eng, cfg, 1, 0, 1, func(*pkt.Packet) bool { return true }, fs, sim.NewRNG(1, 1))
	// Simulate three receptions: on time, exactly at budget, late.
	mk := func(seq int64, created sim.Time) *pkt.Packet {
		return &pkt.Packet{Seq: seq, Bytes: 240, Src: 0, Dst: 1, Created: created}
	}
	fs.VoIPSent = 3
	eng.At(10*sim.Millisecond, func() { v.Receive(1, mk(1, 0)) })
	eng.At(52*sim.Millisecond+10*sim.Millisecond, func() { v.Receive(1, mk(2, 10*sim.Millisecond)) })
	eng.At(200*sim.Millisecond, func() { v.Receive(1, mk(3, 0)) })
	eng.Run(sim.Second)
	if fs.VoIPArrived != 3 {
		t.Fatalf("VoIPArrived = %d", fs.VoIPArrived)
	}
	if fs.VoIPOnTime != 2 {
		t.Fatalf("VoIPOnTime = %d, want 2 (52 ms budget inclusive)", fs.VoIPOnTime)
	}
	if got := fs.VoIPLossRate(); got < 0.33 || got > 0.34 {
		t.Fatalf("VoIPLossRate = %.3f, want 1/3", got)
	}
}

func TestCBREmitsAtInterval(t *testing.T) {
	eng := sim.NewEngine()
	fs := &stats.Flow{ID: 1}
	count := 0
	c := new(CBR)
	c.Init(eng, 1, 0, 1, 1000, 10*sim.Millisecond, func(*pkt.Packet) bool {
		count++
		return true
	}, fs)
	c.Start()
	eng.Run(sim.Second)
	if count < 99 || count > 101 {
		t.Fatalf("CBR emitted %d packets in 1s at 10ms interval, want ≈100", count)
	}
}

func TestCBRReceiveAccounting(t *testing.T) {
	eng := sim.NewEngine()
	fs := &stats.Flow{ID: 1}
	c := new(CBR)
	c.Init(eng, 1, 0, 1, 1000, 10*sim.Millisecond, func(*pkt.Packet) bool { return true }, fs)
	c.Receive(1, &pkt.Packet{Seq: 1, Bytes: 1000, Dst: 1})
	c.Receive(1, &pkt.Packet{Seq: 2, Bytes: 1000, Dst: 1})
	c.Receive(0, &pkt.Packet{Seq: 3, Bytes: 1000, Dst: 1}) // wrong node: ignored
	if fs.AppBytes != 2000 || fs.PktsDelivered != 2 {
		t.Fatalf("stats = %d bytes / %d pkts", fs.AppBytes, fs.PktsDelivered)
	}
}
