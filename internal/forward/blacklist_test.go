package forward

import (
	"testing"

	"ripple/internal/pkt"
	"ripple/internal/routing"
)

// Failure notes are no-ops until EnableFailureDetection: fault-free runs
// must not pay for (or be perturbed by) blacklist state.
func TestBlacklistDisabledByDefault(t *testing.T) {
	b := NewRouteBook(5)
	b.Add(1, routing.Path{0, 1, 2, 3})
	for i := 0; i < 10; i++ {
		b.NoteTxFailure(1, 0, 3)
	}
	if b.Blacklisted(1, 0, 1) {
		t.Fatal("blacklisted without EnableFailureDetection")
	}
	if hop, ok := b.NextHop(1, 0, 3); !ok || hop != 1 {
		t.Fatalf("NextHop = %d, %v", hop, ok)
	}
}

// After `threshold` consecutive terminal drops the sender blacklists its
// own path next hop, and only its own forwarder view changes.
func TestBlacklistScopedToSender(t *testing.T) {
	b := NewRouteBook(5)
	b.EnableFailureDetection(3)
	b.Add(1, routing.Path{0, 1, 2, 3, 4})
	for i := 0; i < 3; i++ {
		b.NoteTxFailure(1, 0, 4)
	}
	if !b.Blacklisted(1, 0, 1) {
		t.Fatal("sender 0 did not blacklist its next hop after 3 failures")
	}
	// The sender's own route view skips the dead hop…
	if hop, ok := b.NextHop(1, 0, 4); !ok || hop != 2 {
		t.Fatalf("NextHop(0) = %d, %v, want 2", hop, ok)
	}
	for _, n := range b.FwdList(1, 0, 4) {
		if n == 1 {
			t.Fatal("blacklisted hop still in sender 0's forwarder list")
		}
	}
	// …but other stations' views are untouched: a flow-global blacklist
	// would knock a live relay out of every list.
	if b.Blacklisted(1, 2, 1) {
		t.Fatal("station 2 inherited station 0's blacklist")
	}
	if hop, ok := b.NextHop(1, 1, 4); !ok || hop != 2 {
		t.Fatalf("NextHop(1) = %d, %v, want 2", hop, ok)
	}
	found := false
	for _, n := range b.FwdList(1, 2, 4) {
		if n == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("station 2's forwarder list lost an unrelated hop")
	}
}

// A success between failures resets the streak: three failures must be
// consecutive to blacklist.
func TestBlacklistStreakResetOnSuccess(t *testing.T) {
	b := NewRouteBook(5)
	b.EnableFailureDetection(3)
	b.Add(1, routing.Path{0, 1, 2, 3})
	b.NoteTxFailure(1, 0, 3)
	b.NoteTxFailure(1, 0, 3)
	b.NoteTxSuccess(1, 0)
	b.NoteTxFailure(1, 0, 3)
	b.NoteTxFailure(1, 0, 3)
	if b.Blacklisted(1, 0, 1) {
		t.Fatal("blacklisted despite an intervening success")
	}
	b.NoteTxFailure(1, 0, 3)
	if !b.Blacklisted(1, 0, 1) {
		t.Fatal("not blacklisted after 3 consecutive failures")
	}
}

// Blacklisting the only relay of a single-relay route would leave the
// sender transmitting straight at an out-of-range destination — the
// guard keeps the relay and defers to the next epoch's route instead.
func TestBlacklistKeepsLastRelay(t *testing.T) {
	b := NewRouteBook(5)
	b.EnableFailureDetection(3)
	b.Add(1, routing.Path{0, 1, 2})
	for i := 0; i < 9; i++ {
		b.NoteTxFailure(1, 0, 2)
	}
	if b.Blacklisted(1, 0, 1) {
		t.Fatal("single-relay route lost its only relay to the blacklist")
	}
	if hop, ok := b.NextHop(1, 0, 2); !ok || hop != 1 {
		t.Fatalf("NextHop = %d, %v, want 1", hop, ok)
	}
}

// A route update (the next epoch's decision) absolves blacklists and
// streaks: the new route already reflects the fault overlay.
func TestBlacklistClearedByRouteUpdate(t *testing.T) {
	b := NewRouteBook(5)
	b.EnableFailureDetection(3)
	b.Add(1, routing.Path{0, 1, 2, 3, 4})
	for i := 0; i < 3; i++ {
		b.NoteTxFailure(1, 0, 4)
	}
	if !b.Blacklisted(1, 0, 1) {
		t.Fatal("setup: not blacklisted")
	}
	b.Add(1, routing.Path{0, 1, 2, 3, 4})
	if b.Blacklisted(1, 0, 1) {
		t.Fatal("blacklist survived a route update")
	}
	// Two residual failures from before the update must not combine with
	// one new failure — the streak was cleared too.
	b.NoteTxFailure(1, 0, 4)
	if b.Blacklisted(1, 0, 1) {
		t.Fatal("failure streak survived a route update")
	}
}

// The destination is exempt: a sender whose next hop IS the destination
// never blacklists it, no matter how many failures accumulate.
func TestBlacklistNeverTargetsDestination(t *testing.T) {
	b := NewRouteBook(5)
	b.EnableFailureDetection(3)
	b.Add(1, routing.Path{0, 1, 2})
	for i := 0; i < 9; i++ {
		b.NoteTxFailure(1, 1, 2) // sender 1's next hop is dst 2
	}
	if b.Blacklisted(1, 1, 2) {
		t.Fatal("destination was blacklisted")
	}
	if hop, ok := b.NextHop(1, 1, 2); !ok || hop != pkt.NodeID(2) {
		t.Fatalf("NextHop = %d, %v, want 2", hop, ok)
	}
}
