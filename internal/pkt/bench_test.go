package pkt

import "testing"

// sinkFrame keeps the compiler from discarding a benchmark's result.
var sinkFrame *Frame

// aggregate fills f like a 16-packet data frame with a 3-entry forwarder list.
func aggregate(f *Frame, pkts []*Packet) *Frame {
	f.Kind = Data
	f.FwdList = []NodeID{3, 2, 1}
	f.Packets = append(f.Packets, pkts...)
	return f
}

func sixteenPackets() []*Packet {
	pkts := make([]*Packet, 16)
	for i := range pkts {
		pkts[i] = &Packet{UID: uint64(i)}
	}
	return pkts
}

// BenchmarkFrameGetRelease is one frame's life without the air: drawn,
// filled with an aggregate, released.
func BenchmarkFrameGetRelease(b *testing.B) {
	var pl FramePool
	pkts := sixteenPackets()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := pl.Get()
		f.Packets = append(f.Packets, pkts...)
		f.Release()
	}
}

// BenchmarkFrameClone is the relay's copy of an overheard aggregate: from
// the pool (and back), and of a literal frame, which allocates the copy and
// its packet list.
func BenchmarkFrameClone(b *testing.B) {
	pkts := sixteenPackets()
	b.Run("pooled", func(b *testing.B) {
		var pl FramePool
		f := aggregate(pl.Get(), pkts)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := f.Clone()
			sinkFrame = g
			g.Release()
		}
	})
	b.Run("literal", func(b *testing.B) {
		f := aggregate(&Frame{}, pkts)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkFrame = f.Clone()
		}
	})
}

// A warmed-up pool serves the whole life of a relayed frame — draw, fill,
// clone, release both — without allocating.
func TestPooledFramePathAllocatesNothing(t *testing.T) {
	var pl FramePool
	pkts := sixteenPackets()
	fwd := []NodeID{3, 2, 1}
	life := func() {
		f := pl.Get()
		f.Kind, f.FwdList = Ack, fwd
		f.Packets = append(f.Packets, pkts...)
		f.AckedUIDs = append(f.AckedUIDs, 1, 2, 3)
		g := f.Clone()
		f.Release()
		g.Release()
	}
	life() // warm-up: two frames and their lists
	if n := testing.AllocsPerRun(100, life); n != 0 {
		t.Fatalf("%.1f allocations per relayed frame from a warm pool, want 0", n)
	}
}
