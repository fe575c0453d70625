package routing_test

import (
	"testing"

	"ripple/internal/forward"
	"ripple/internal/pkt"
	"ripple/internal/routing"
)

// fwdList answers the forwarder list read off p, the one flow of a route
// book with the paper's five-forwarder cap.
func fwdList(p routing.Path, from, toward pkt.NodeID) []pkt.NodeID {
	b := forward.NewRouteBook(5)
	b.Add(0, p)
	return b.FwdList(0, from, toward)
}

func TestFwdListDestinationFirst(t *testing.T) {
	p := routing.Path{0, 1, 2, 3}
	got := fwdList(p, 0, 3)
	want := []pkt.NodeID{3, 2, 1}
	if len(got) != len(want) {
		t.Fatalf("FwdList = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FwdList = %v, want %v", got, want)
		}
	}
}

func TestFwdListReverseDirection(t *testing.T) {
	p := routing.Path{0, 1, 2, 3}
	got := fwdList(p, 3, 0)
	want := []pkt.NodeID{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("reverse FwdList = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reverse FwdList = %v, want %v", got, want)
		}
	}
}

func TestFwdListFromIntermediate(t *testing.T) {
	p := routing.Path{0, 1, 2, 3}
	got := fwdList(p, 1, 3)
	want := []pkt.NodeID{3, 2}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("FwdList(1→3) = %v, want %v", got, want)
	}
}

func TestFwdListOffPathNil(t *testing.T) {
	p := routing.Path{0, 1, 2}
	if fwdList(p, 9, 2) != nil {
		t.Fatal("off-path station must get nil forwarder list")
	}
	if fwdList(p, 0, 9) != nil {
		t.Fatal("unknown endpoint must get nil forwarder list")
	}
}
