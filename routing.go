package ripple

import (
	"fmt"
	"strings"

	"ripple/internal/network"
	"ripple/internal/routing"
)

// Routing selects how flow routes — and thus the prioritised forwarder
// lists of the opportunistic schemes — are computed, mirroring the Radio
// pattern: named policies plus chainable options. The zero value is
// StaticRouting(): flows keep exactly the paths they were declared with
// (Net.FlowTo's minimum-ETX path, or an explicit Flow.Path), and nothing
// is recomputed during the run.
//
//	ripple.ETXRouting()                              // min-ETX from endpoints
//	ripple.CongestionRouting()                       // ORCD-style, routes around queues
//	ripple.CongestionRouting().WithAlpha(0.5)        // heavier backlog weight
//	ripple.CongestionRouting().WithEpoch(200 * ripple.Millisecond)
//	ripple.ETXRouting().WithForwarders(3)            // exactly 3 relays per route
//	ripple.ETXRouting().WithForwarders(2).WithPriority(ripple.PriorityNearDst)
//
// The same radio drives the policy's link metric and the simulated medium,
// so routes are always computed over the channel the packets will see. A
// Routing is the simulator's RoutingSpec, which a run receives as it is.
type Routing struct{ spec network.RoutingSpec }

// Priority selects which relays survive when WithForwarders resizes a
// route's candidate set.
type Priority int

const (
	// PrioritySpaced keeps evenly spaced relays along the route (default).
	PrioritySpaced Priority = iota
	// PriorityNearDst keeps the relays closest to the destination.
	PriorityNearDst
	// PriorityNearSrc keeps the relays closest to the source.
	PriorityNearSrc
)

// StaticRouting returns the default policy: declared flow paths, used as
// given and never recomputed. Equivalent to the zero Routing value.
func StaticRouting() Routing { return Routing{} }

// ETXRouting recomputes each flow's route as the minimum-ETX path between
// its endpoints at run start (De Couto et al.; the metric ExOR/MORE use).
// For flows declared with Net.FlowTo this reproduces the declared path; it
// matters when paths were written by hand or the radio changed.
func ETXRouting() Routing { return Routing{network.RoutingSpec{Kind: network.RouteETX}} }

// CongestionRouting routes around queue buildup, after Bhorkar et al.'s
// opportunistic routing with congestion diversity (ORCD): a link into a
// relay costs its ETX plus alpha per packet sitting in the relay's MAC
// queue, and routes are recomputed from live queue depths every epoch
// (default 500 ms; see WithEpoch, WithAlpha).
func CongestionRouting() Routing { return Routing{network.RoutingSpec{Kind: network.RouteCongestion}} }

// GeoRouting selects each relay by greedy geographic progress (Li et al.):
// from every hop, the next forwarder is the usable neighbor closest to the
// destination, with minimum-ETX recovery when greed stalls in a void. Under
// mobility the policy is rebuilt each epoch over that epoch's positions,
// which makes it the natural partner of WaypointMobility/MarkovMobility.
func GeoRouting() Routing { return Routing{network.RoutingSpec{Kind: network.RouteGeo}} }

// WithAlpha returns a copy with the congestion backlog weight set, in ETX
// units per queued packet (default 0.25). Only valid for
// CongestionRouting; a scenario that sets it on another policy is
// rejected.
func (r Routing) WithAlpha(alpha float64) Routing {
	r.spec.Alpha = alpha
	return r
}

// WithEpoch returns a copy with the dynamic-policy recompute interval set
// (default 500 ms). Only valid for policies that react to load
// (CongestionRouting).
func (r Routing) WithEpoch(epoch Time) Routing {
	r.spec.Epoch = epoch
	return r
}

// WithForwarders returns a copy that forces every route to carry exactly
// min(k, available) intermediate relays: longer routes are truncated by the
// priority rule, shorter ones padded with off-route stations that make ETX
// progress toward the destination. k counts relays between the endpoints.
// This is the forwarder-list-sizing axis of Blomer & Jindal ("How many
// relays should there be?") — primarily an opportunistic-scheme knob, since
// padding lengthens the hop-by-hop walk of predetermined schemes.
func (r Routing) WithForwarders(k int) Routing {
	r.spec.K = k
	return r
}

// WithPriority returns a copy with the relay-sizing priority rule set
// (default PrioritySpaced). Only valid together with WithForwarders.
func (r Routing) WithPriority(p Priority) Routing {
	switch p {
	case PriorityNearDst:
		r.spec.Rule = routing.SizeNearDst
	case PriorityNearSrc:
		r.spec.Rule = routing.SizeNearSrc
	default:
		r.spec.Rule = routing.SizeSpaced
	}
	return r
}

// String names the routing configuration for sweep labels, e.g.
// "congestion(alpha=0.5,epoch=200ms)" or "etx(k=3/neardst)".
func (r Routing) String() string {
	name := r.spec.Kind.String()
	var opts []string
	if r.spec.Alpha > 0 {
		opts = append(opts, fmt.Sprintf("alpha=%g", r.spec.Alpha))
	}
	if r.spec.Epoch > 0 {
		opts = append(opts, fmt.Sprintf("epoch=%v", r.spec.Epoch))
	}
	if r.spec.K > 0 {
		k := fmt.Sprintf("k=%d", r.spec.K)
		if r.spec.Rule != routing.SizeSpaced {
			k += "/" + r.spec.Rule.String()
		}
		opts = append(opts, k)
	}
	if len(opts) == 0 {
		return name
	}
	return name + "(" + strings.Join(opts, ",") + ")"
}

// validate rejects an option the selected policy would silently ignore, so
// a label like "etx(alpha=0.5)" can never claim an inert knob was in force
// (the ranges are network.Validate's). Scenario.Validate and every run
// report it.
func (r Routing) validate() error {
	switch {
	case r.spec.Alpha != 0 && r.spec.Kind != network.RouteCongestion:
		return fmt.Errorf("ripple: Routing.WithAlpha only applies to CongestionRouting (got %s)", r.spec.Kind)
	case r.spec.Epoch != 0 && r.spec.Kind != network.RouteCongestion:
		return fmt.Errorf("ripple: Routing.WithEpoch only applies to policies that react to load (CongestionRouting; got %s)", r.spec.Kind)
	case r.spec.Rule != routing.SizeSpaced && r.spec.K == 0:
		return fmt.Errorf("ripple: Routing.WithPriority only applies together with WithForwarders")
	}
	return nil
}
