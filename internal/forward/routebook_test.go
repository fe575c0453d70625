package forward

import (
	"slices"
	"testing"

	"ripple/internal/pkt"
	"ripple/internal/routing"
)

// ruleList is the forwarder-list rule the route book answers by: from `from`
// toward endpoint `toward`, the destination first, then the stations between
// them nearest to it first, the sender excluded and every banned station
// but the destination dropped; nil when `from` is off the path or is
// `toward`, or `toward` is not an endpoint.
func ruleList(p routing.Path, from, toward pkt.NodeID, banned []pkt.NodeID) []pkt.NodeID {
	i := slices.Index(p, from)
	if i < 0 || from == toward {
		return nil
	}
	var list []pkt.NodeID
	keep := func(n pkt.NodeID) {
		if n == toward || !slices.Contains(banned, n) {
			list = append(list, n)
		}
	}
	switch toward {
	case p.Dst():
		for j := len(p) - 1; j > i; j-- {
			keep(p[j])
		}
	case p.Src():
		for j := 0; j < i; j++ {
			keep(p[j])
		}
	}
	return list
}

// linePath is an n-station path whose IDs are not its indices.
func linePath(n int) routing.Path {
	p := make(routing.Path, n)
	for i := range p {
		p[i] = pkt.NodeID(10*i + 3)
	}
	return p
}

// askAll checks FwdList from every station of p, and from one off it, toward
// both endpoints and toward a station that is not one, against ruleList with
// the stations each sender has banned; and that every list is safe for a
// frame to hold: its capacity is its length, so an append copies and the
// book's next answer is unchanged.
func askAll(t *testing.T, b *RouteBook, slot int, p routing.Path) {
	t.Helper()
	senders := append(slices.Clone(p), 999)
	towards := []pkt.NodeID{p.Dst(), p.Src(), 999}
	if len(p) > 2 {
		towards = append(towards, p[1])
	}
	for _, from := range senders {
		var banned []pkt.NodeID
		for _, n := range p {
			if b.Blacklisted(slot, from, n) {
				banned = append(banned, n)
			}
		}
		for _, toward := range towards {
			got := b.FwdList(slot, from, toward)
			want := ruleList(p, from, toward, banned)
			if !slices.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("path %v banned %v: FwdList(%d → %d) = %v, want %v", p, banned, from, toward, got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("path %v: FwdList(%d → %d) = %v has capacity %d", p, from, toward, got, cap(got))
			}
			grown := append(got, 777)
			for k := range grown {
				grown[k] = 777
			}
			if again := b.FwdList(slot, from, toward); !slices.Equal(again, want) {
				t.Fatalf("path %v: an append to FwdList(%d → %d) changed the next answer to %v", p, from, toward, again)
			}
		}
	}
}

// FwdList follows the rule: in five worked cases, then from every station
// of 2- to 7-station paths, without and then with blacklists, on one book
// whose flow is re-added with each path.
func TestFwdListFollowsTheRule(t *testing.T) {
	for _, c := range []struct {
		path         routing.Path
		from, toward pkt.NodeID
		want         []pkt.NodeID
	}{
		{routing.Path{0, 1, 2, 3}, 0, 3, []pkt.NodeID{3, 2, 1}},
		{routing.Path{0, 1, 2, 3}, 3, 0, []pkt.NodeID{0, 1, 2}},
		{routing.Path{0, 1, 2, 3}, 1, 3, []pkt.NodeID{3, 2}},
		{routing.Path{0, 1, 2}, 9, 2, nil}, // off the path
		{routing.Path{0, 1, 2}, 0, 9, nil}, // toward an unknown endpoint
	} {
		b := NewRouteBook(5)
		b.Add(0, c.path)
		if got := b.FwdList(0, c.from, c.toward); !slices.Equal(got, c.want) || (got == nil) != (c.want == nil) {
			t.Errorf("path %v: FwdList(%d → %d) = %v, want %v", c.path, c.from, c.toward, got, c.want)
		}
	}
	b := NewRouteBook(8)
	for n := 2; n <= 7; n++ {
		p := linePath(n)
		b.Add(1, p)
		askAll(t, b, 1, p)
		if n < 4 {
			continue // no sender has two relays to spare one
		}
		b.EnableFailureDetection(1)
		// The source and the destination ban their first relay, station 1
		// its next hop toward the destination once it has two relays that
		// way.
		b.NoteTxFailure(1, p[1], p.Dst())
		b.NoteTxFailure(1, p[1], p.Src())
		b.NoteTxFailure(1, p.Src(), p.Dst())
		b.NoteTxFailure(1, p.Dst(), p.Src())
		if !b.Blacklisted(1, p.Src(), p[1]) || !b.Blacklisted(1, p.Dst(), p[n-2]) || n > 4 && !b.Blacklisted(1, p[1], p[2]) {
			t.Fatalf("path %v: a relay was not banned", p)
		}
		askAll(t, b, 1, p)
		b.EnableFailureDetection(0)
	}
}

// A new route costs at most one allocation — its reversal, cut from the
// path slab, which allocates only when its array is full — however many
// stations then ask for their lists; an equal route re-added — as every
// epoch swap and re-route tick does — costs none.
func TestRouteBookAllocations(t *testing.T) {
	routes := []routing.Path{{0, 1, 2, 3, 4, 5}, {0, 6, 7, 8, 9, 5}}
	b := NewRouteBook(5)
	b.Add(0, routes[0])
	ask := func() {
		for _, from := range b.Path(0) {
			b.FwdList(0, from, 5)
			b.FwdList(0, from, 0)
		}
	}
	k := 0
	if n := testing.AllocsPerRun(50, func() { k++; b.Add(0, routes[k%2]); ask() }); n > 1 {
		t.Errorf("Add of a new route and every list: %v allocations, want at most 1", n)
	}
	same := slices.Clone(b.Path(0))
	if n := testing.AllocsPerRun(50, func() { b.Add(0, same); ask() }); n != 0 {
		t.Errorf("Add of an equal route and every list: %v allocations, want 0", n)
	}
}

// slabRun is a run's worth of route-book traffic: routes over the
// forwarder cap, re-routes, lists toward both endpoints from every station,
// and bans. It passes every list handed out to got, when got is not nil.
func slabRun(b *RouteBook, got func([]pkt.NodeID)) {
	b.EnableFailureDetection(1)
	for k, p := range slabRoutes {
		b.Add(k%2, p)
		for _, from := range b.Path(k % 2) {
			for _, toward := range []pkt.NodeID{p.Dst(), p.Src()} {
				if l := b.FwdList(k%2, from, toward); got != nil {
					got(l)
				}
				b.NoteTxFailure(k%2, from, toward)
			}
		}
	}
}

var slabRoutes = []routing.Path{linePath(9), {3, 13, 23, 33}, linePath(7), linePath(9)}

// The path slab never writes what it handed out: every list a run was given
// reads the same at the run's end, after the re-routes and bans that cut
// more paths behind it. Emptied by Init, the slab is sized to the whole run,
// so the same run again allocates nothing at all.
func TestRouteBookSlabKeepsWhatItHandedOut(t *testing.T) {
	b := NewRouteBook(4)
	var views, copies [][]pkt.NodeID
	slabRun(b, func(l []pkt.NodeID) { views, copies = append(views, l), append(copies, slices.Clone(l)) })
	banned := false
	for _, from := range b.Path(1) {
		for _, n := range b.Path(1) {
			banned = banned || b.Blacklisted(1, from, n)
		}
	}
	if !banned {
		t.Fatal("no sender banned a relay: the bans' paths are not exercised")
	}
	for i := range views {
		if !slices.Equal(views[i], copies[i]) {
			t.Fatalf("list %d handed out as %v reads %v at the run's end", i, copies[i], views[i])
		}
	}
	if n := testing.AllocsPerRun(20, func() { b.Init(4); slabRun(b, nil) }); n != 0 {
		t.Fatalf("the same run again on the emptied book: %v allocations, want 0", n)
	}
}
