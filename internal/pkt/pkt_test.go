package pkt

import (
	"testing"
	"testing/quick"
)

func TestPayloadBytesSinglePacket(t *testing.T) {
	f := &Frame{
		Kind:    Data,
		Packets: []*Packet{{Bytes: 1000}},
	}
	// Plain DCF framing: MAC header + body, no per-packet header.
	if got := f.PayloadBytes(34, 0, 0); got != 1034 {
		t.Fatalf("PayloadBytes = %d, want 1034", got)
	}
}

func TestPayloadBytesAggregated(t *testing.T) {
	f := &Frame{Kind: Data}
	for i := 0; i < 16; i++ {
		f.Packets = append(f.Packets, &Packet{Bytes: 1000})
	}
	// 34 header + 16*(1000+8) per-packet.
	if got := f.PayloadBytes(34, 8, 0); got != 34+16*1008 {
		t.Fatalf("PayloadBytes = %d", got)
	}
}

func TestPayloadBytesForwarderList(t *testing.T) {
	f := &Frame{
		Kind:    Data,
		FwdList: []NodeID{3, 2, 1},
		Packets: []*Packet{{Bytes: 1000}},
	}
	if got := f.PayloadBytes(34, 0, 6); got != 34+18+1000 {
		t.Fatalf("PayloadBytes = %d, want %d", got, 34+18+1000)
	}
}

func TestRankOf(t *testing.T) {
	f := &Frame{FwdList: []NodeID{3, 2, 1}}
	cases := []struct {
		node NodeID
		want int
	}{{3, 0}, {2, 1}, {1, 2}, {0, -1}, {9, -1}}
	for _, c := range cases {
		if got := f.RankOf(c.node); got != c.want {
			t.Errorf("RankOf(%d) = %d, want %d", c.node, got, c.want)
		}
	}
}

// A clone shares what is immutable (the route book's forwarder list, the
// packets themselves) and owns the two lists a recycled original would have
// rewritten under it.
func TestCloneOwnsPacketAndAckLists(t *testing.T) {
	f := &Frame{
		Kind:      Data,
		FwdList:   []NodeID{3, 2, 1},
		Packets:   []*Packet{{UID: 1}, {UID: 2}},
		AckedUIDs: []uint64{7},
	}
	f.BeginAir(2)
	g := f.Clone()
	if &g.FwdList[0] != &f.FwdList[0] {
		t.Fatal("Clone should share the forwarder list")
	}
	if len(g.Packets) != 2 || g.Packets[0] != f.Packets[0] || g.Packets[1] != f.Packets[1] {
		t.Fatal("Clone should carry the same packets")
	}
	if &g.Packets[0] == &f.Packets[0] || &g.AckedUIDs[0] == &f.AckedUIDs[0] {
		t.Fatal("Clone must own its Packets and AckedUIDs lists")
	}
	if g.AckedUIDs[0] != 7 || g.Kind != Data {
		t.Fatalf("Clone lost fields: %+v", g)
	}
	if g.air != 0 {
		t.Fatal("a clone is not on the air")
	}
}

// Property: RankOf is the inverse of list indexing.
func TestRankOfProperty(t *testing.T) {
	prop := func(ids []uint8) bool {
		seen := map[NodeID]bool{}
		var list []NodeID
		for _, id := range ids {
			n := NodeID(id)
			if !seen[n] {
				seen[n] = true
				list = append(list, n)
			}
		}
		f := &Frame{FwdList: list}
		for i, n := range list {
			if f.RankOf(n) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameKindString(t *testing.T) {
	if Data.String() != "DATA" || Ack.String() != "ACK" {
		t.Fatal("FrameKind labels wrong")
	}
	if FrameKind(99).String() == "" {
		t.Fatal("unknown kind should still format")
	}
}

// A flow's two directions are adjacent streams, and both name the flow's
// slot.
func TestStreamSlots(t *testing.T) {
	for slot := 0; slot < 4; slot++ {
		for dir := 0; dir < 2; dir++ {
			p := &Packet{Stream: StreamOf(slot, dir)}
			if p.Stream != int32(2*slot+dir) || p.FlowSlot() != slot {
				t.Fatalf("StreamOf(%d, %d) = %d, FlowSlot %d", slot, dir, p.Stream, p.FlowSlot())
			}
		}
	}
}

// Extend lengthens with zeros up to the index asked for, keeps what the
// slice held, and leaves a long enough slice alone.
func TestExtend(t *testing.T) {
	s := Extend([]int{7}, 3)
	if len(s) != 4 || s[0] != 7 || s[1] != 0 || s[3] != 0 {
		t.Fatalf("Extend([7], 3) = %v", s)
	}
	reused := append(make([]int, 0, 8), 1, 2, 3)
	reused[:5][4] = 9 // a stale element past the length must come back zero
	if s := Extend(reused, 4); len(s) != 5 || s[4] != 0 {
		t.Fatalf("Extend over stale capacity = %v", s)
	}
	if s := Extend([]int{1, 2}, 1); len(s) != 2 {
		t.Fatalf("Extend within range changed the length: %v", s)
	}
}
