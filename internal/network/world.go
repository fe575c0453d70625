package network

import (
	"fmt"
	"math"
	"slices"

	"ripple/internal/fault"
	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
)

// World is the immutable, seed-independent snapshot of a scenario: the
// radio link plan (per-neighbor power and delay attributes and neighbor
// lists, sparse when pruning is on), the ETX link table of the
// routing layer (the usable links of the plan's neighbor graph), the route
// policy over that table, and every flow's resolved initial route. All of
// it is a pure function of the Config's non-seed fields, so a campaign cell
// that fans S seed-runs of one scenario across the worker pool can build
// the World once and share it by reference — the per-run cost collapses to
// the mutable state (engine, medium, schemes, transports).
//
// Immutability contract: a World is never written after BuildWorld
// returns, and network.Run only reads it. Per-run mutable derivatives —
// the RouteBook (routes change each epoch under dynamic policies), the
// Medium (counters, station PHY state) — are created fresh per run *from*
// the World. The policy is shared too: every policy is a stateless view of
// the immutable table (a dynamic one is handed the run's backlog per
// call). Sharing one World across any number of concurrent runs is
// therefore safe; the shared-world tests in this package hammer one
// instance from many goroutines under -race to enforce the contract.
//
// Seed independence is equally load-bearing: nothing in the World depends
// on Config.Seed, and building it draws no random numbers, so a run on a
// prebuilt World is RNG-bit-identical to a run that builds everything
// itself.
type World struct {
	plan  *radio.LinkPlan
	table *routing.Table // nil when the routing spec is inactive
	// policy is the spec's routing.Policy over table and the plan's
	// positions; nil when the spec resolves to none (inactive, or static
	// paths sized in place).
	policy routing.Policy
	// routes holds each flow's resolved initial path, indexed like
	// Config.Flows. For static specs this is the declared (possibly
	// K-sized) path; for policy specs it is the policy's unloaded route.
	routes []routing.Path
	flows  int
	// Time-varying worlds (Config.Mobility or Config.Faults active):
	// epochLen is the epoch length and epochs[e] the world in effect from
	// (e+1)·epochLen on, each derived incrementally from its predecessor
	// (see buildEpochs). Epoch worlds are as immutable and seed-independent
	// as the initial one — trajectories draw from MobilitySpec.Seed, fault
	// schedules from FaultSpec.Seed, never Config.Seed — so the whole
	// sequence is shared across pool workers like any other World.
	// A static world has epochLen 0 and no epochs.
	epochLen sim.Time
	epochs   []*World

	// faults is the materialised fault timeline (root world only; nil
	// without fault injection). Like everything else here it is immutable
	// and seed-independent.
	faults *fault.Schedule
	// Per-flow route health of an epoch world, indexed like Config.Flows
	// (nil on the initial world and on fault-free, policy-free epochs):
	// stale flags flows whose route recompute failed this epoch (the
	// previous route was kept), unreach flags flows whose destination is
	// down or cut off by faults this epoch. masked records that the
	// epoch's link table was built with the fault overlay applied.
	stale   []bool
	unreach []bool
	masked  bool
}

// BuildWorld precomputes the seed-independent part of a scenario. The
// returned World matches any Config whose non-seed fields equal cfg's;
// attach it via Config.World to share it across runs.
func BuildWorld(cfg Config) (*World, error) {
	cfg.Normalize()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	w, err := derive(&cfg, nil, radio.NewLinkPlan(cfg.Radio, cfg.Positions), 0)
	if err != nil {
		return nil, err
	}
	if cfg.Faults.Active() {
		w.faults = fault.BuildOn(cfg.Faults, cfg.Duration, cfg.Positions,
			exemptEndpoints(&cfg), newPlanPairs(w.plan))
	}
	if cfg.Mobility.active() || w.faults != nil {
		if err := w.buildEpochs(&cfg); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// minLinkProb is the delivery-probability floor below which a link is not
// a link for routing.
const minLinkProb = 0.1

// lineage is what deriving an epoch world takes from the epochs before it
// besides the predecessor World itself. It lives for one buildEpochs and is
// dropped with it, so no World carries any of it.
type lineage struct {
	faults *fault.Schedule // the root world's; nil without fault injection
	prev   *World
	// clean is prev's link table before any fault overlay: prev.table itself
	// when prev is unmasked, and nil when routing is inactive.
	clean *routing.Table
	// counts is the fault schedule's ToggleCounts at prev's boundary; spare
	// is the buffer the next boundary's are written into.
	counts, spare []int
}

// derive builds one world over its link plan: the root snapshot (ln nil,
// at 0) or the world of one epoch from its predecessor, the epoch's plan
// (the predecessor's, row-patched by LinkPlan.Rebuild) and the fault overlay
// in effect at the boundary, advancing ln to it.
//
// The link table is built over the same radio model the medium uses, so
// the metric always matches the channel the packets see, and over exactly
// the plan's neighbor graph — a pruned pair's mean power sits PruneSigma
// shadowing deviations below the carrier-sense threshold, which (with
// CSThreshDBm ≤ RXThreshDBm, true of every radio profile) puts its
// delivery probability orders of magnitude below minLinkProb, so probing
// it would store nothing.
//
// Every epoch has a clean table — the one a root build over its positions
// would store — patched row by row from its predecessor's clean table, so
// on a city with most stations parked the per-epoch cost follows the
// motion, not the population; an epoch in which nobody moved shares its
// predecessor's. With a fault overlay in effect the world's table is that
// clean table filtered (maskLinkTable), the routing-layer mirror of what
// the medium does to live transmissions; the clean one is carried forward
// in ln all the same, so a masked epoch costs its successor nothing.
//
// A flow whose route cannot be resolved is an error on the root world. On
// an epoch world it keeps the previous epoch's route — flagged stale when
// motion disconnected the endpoints, or unreachable when the fault overlay
// did — exactly as a failed in-run dynamic recompute keeps the current
// one: a transient partition must not kill the run, and Run surfaces the
// flags as Result.RouteStale and the unreachable machinery instead.
func derive(cfg *Config, ln *lineage, plan *radio.LinkPlan, at sim.Time) (*World, error) {
	w := &World{flows: len(cfg.Flows), plan: plan}
	var prev *World
	var fs *fault.Schedule
	var clean *routing.Table
	if ln != nil {
		prev, fs = ln.prev, ln.faults
		// Two instants with equal toggle counts have identical fault
		// overlays, and prev is the world of one epoch earlier.
		toggled := false
		if fs != nil {
			ln.counts, ln.spare = fs.ToggleCounts(at, ln.spare[:0]), ln.counts
			toggled = !slices.Equal(ln.counts, ln.spare)
		}
		if w.plan == prev.plan && !toggled {
			// Nobody moved and no fault toggled this epoch: the predecessor
			// *is* this epoch's world, and both are immutable, so share it.
			return prev, nil
		}
	}
	var down []bool
	var noise []float64
	if fs != nil && fs.MaskedAt(at) {
		w.masked = true
		down = make([]bool, w.plan.Stations())
		for i := range down {
			down[i] = fs.StationDownAt(pkt.NodeID(i), at)
		}
		noise = fs.NoiseDBAt(at, nil)
	}
	if cfg.Routing.active() {
		prob := linkProb(cfg.Radio)
		switch {
		case ln == nil:
			clean = linkTable(w.plan, prob)
		case w.plan == prev.plan:
			clean = ln.clean
		default:
			clean = patchLinkTable(prev.plan, ln.clean, w.plan, prob)
		}
		w.table = clean
		if w.masked {
			w.table = maskLinkTable(clean, w.plan, cfg.Radio, fs, at, down, noise)
		}
		// RouteStatic with K sizes the declared paths in place, without a
		// policy.
		if cfg.Routing.Kind != RouteStatic {
			pol, err := cfg.Routing.build(w.table, w.plan.Positions())
			if err != nil {
				return nil, err
			}
			w.policy = pol
		}
	}
	w.routes = make([]routing.Path, len(cfg.Flows))
	if fs != nil || (prev != nil && w.policy != nil) {
		w.stale = make([]bool, len(cfg.Flows))
		w.unreach = make([]bool, len(cfg.Flows))
	}
	for i, f := range cfg.Flows {
		switch {
		case w.policy != nil:
			p, err := w.policy.Route(f.Path.Src(), f.Path.Dst(), nil)
			if err != nil {
				if prev == nil {
					return nil, fmt.Errorf("network: flow %d: %s route: %w", f.ID, w.policy.Name(), err)
				}
				p = prev.routes[i]
				// Distinguish "this policy could not route" (geo void, a
				// congestion detour dead end — keep the stale route and let
				// blacklisting limp along) from "the fault overlay cut the
				// destination off" (no path at all in the masked table —
				// drop at the source instead of burning airtime).
				cut := false
				if w.masked {
					_, err := w.table.ShortestPath(f.Path.Src(), f.Path.Dst())
					cut = err != nil
				}
				w.unreach[i], w.stale[i] = cut, !cut
			}
			w.routes[i] = p
		case w.table != nil:
			w.routes[i] = routing.Resize(w.table, maskPath(f.Path, down), cfg.Routing.K, cfg.Routing.Rule)
		default:
			w.routes[i] = maskPath(f.Path, down)
		}
		if down != nil && down[f.Path.Dst()] {
			w.unreach[i] = true
		}
	}
	if ln != nil {
		ln.prev, ln.clean = w, clean
	}
	return w, nil
}

// linkProb returns the clean delivery probability of a link as a function
// of its length. Past reach — where the mean power sits 1.5 shadowing
// deviations under the decode threshold, a probability of 0.067 — nothing
// clears minLinkProb, and nine in ten of a pruned plan's pairs are that far
// apart: they are answered by a comparison, not an erfc.
func linkProb(rc radio.Config) func(d float64) float64 {
	far := rc
	far.RXThreshDBm -= 1.5 * rc.ShadowSigmaDB
	reach := far.RXRange() * 1.001
	return func(d float64) float64 {
		if d > reach {
			return 0
		}
		return 1 - rc.LossProb(d)
	}
}

// LinkTable is the clean ETX link table a World over positions under rc
// routes on, from the same builder: the usable links of the link plan's
// neighbor graph, in O(N·k) for N stations of k neighbors each where the
// all-pairs reference, routing.NewTable, probes N² pairs. It refuses the
// layouts and radio configurations Validate refuses, with its error.
func LinkTable(rc radio.Config, positions []radio.Pos) (*routing.Table, error) {
	if err := rc.Check(at{-1, "Radio."}.bad); err != nil {
		return nil, err
	}
	if err := radio.CheckPositions(positions); err != nil {
		return nil, at{flow: -1}.error("Positions", positions, err.Error())
	}
	return linkTable(radio.NewLinkPlan(rc, positions), linkProb(rc)), nil
}

// linkTable builds a world's clean ETX table from the link-probability func
// of a distance over the plan's neighbor graph.
func linkTable(plan *radio.LinkPlan, prob func(d float64) float64) *routing.Table {
	return routing.NewSparseTableSym(plan.Stations(), func(a pkt.NodeID, yield func(int32, float64)) {
		plan.EachAscNeighbor(int(a), func(j int32, d float64) {
			yield(j, prob(d))
		})
	}, minLinkProb)
}

// patchLinkTable derives the clean link table of plan from the clean table
// of prevPlan, the plan it was rebuilt from: rows whose neighborhood did
// not change are copied, unmoved pairs of the others copy their stored
// values, and only pairs with a moved endpoint pay a distance and a
// probability evaluation — the enumeration hands every other pair a
// distance of 0, which RebuildSparseTableSym never reads. Whether the
// predecessor world was fault-masked does not enter: its clean table is
// what is patched.
func patchLinkTable(prevPlan *radio.LinkPlan, prevClean *routing.Table, plan *radio.LinkPlan, prob func(d float64) float64) *routing.Table {
	prevPos, newPos := prevPlan.Positions(), plan.Positions()
	moved := make([]bool, plan.Stations())
	unchanged := make([]bool, plan.Stations())
	for i := range moved {
		moved[i] = newPos[i] != prevPos[i]
		unchanged[i] = !moved[i] && plan.RowEqual(prevPlan, i)
	}
	return routing.RebuildSparseTableSym(prevClean, moved, unchanged,
		func(a pkt.NodeID, yield func(int32, float64)) {
			plan.EachAscNeighborID(int(a), func(j int32) {
				d := 0.0
				if moved[a] || moved[j] {
					d = radio.Dist(newPos[a], newPos[j])
				}
				yield(j, d)
			})
		}, prob, minLinkProb)
}

// maskLinkTable filters an epoch's clean table through the fault overlay at
// the boundary: links of down stations and blocked links are dropped, and a
// link with a noise penalty at either end is evaluated again with the decode
// threshold raised by it. A penalty can only lower a delivery probability,
// so no pair the clean table left out for falling short of minLinkProb can
// clear it under the overlay: the filter of the clean table is the table a
// build from nothing under the overlay would store, link for link.
func maskLinkTable(clean *routing.Table, plan *radio.LinkPlan, rc radio.Config, fs *fault.Schedule, at sim.Time, down []bool, noise []float64) *routing.Table {
	return clean.Filter(func(a, b pkt.NodeID, etx float64) float64 {
		if down[a] || down[b] || fs.LinkBlockedAt(a, b, at) {
			return math.Inf(1)
		}
		pen := max(noise[a], noise[b])
		if pen <= 0 {
			return etx
		}
		noisy := rc
		noisy.RXThreshDBm += pen
		p := 1 - noisy.LossProb(plan.Distance(int(a), int(b)))
		if p < minLinkProb {
			return math.Inf(1)
		}
		return routing.ETX(p, p)
	})
}

// maskPath filters crashed intermediate relays out of a declared path
// (endpoints stay — a down destination is handled as unreachable, not by
// rewriting the path).
func maskPath(p routing.Path, down []bool) routing.Path {
	if down == nil {
		return p
	}
	masked := false
	for i := 1; i < len(p)-1; i++ {
		if down[p[i]] {
			masked = true
			break
		}
	}
	if !masked {
		return p
	}
	out := make(routing.Path, 0, len(p))
	for i, nd := range p {
		if i > 0 && i < len(p)-1 && down[nd] {
			continue
		}
		out = append(out, nd)
	}
	return out
}

// exemptEndpoints flags every flow source and destination as immune to
// station churn, so degradation curves measure relay failures rather than
// trivial source or sink death. Partitions and link flaps can still make
// a destination unreachable.
func exemptEndpoints(cfg *Config) []bool {
	ex := make([]bool, len(cfg.Positions))
	for _, f := range cfg.Flows {
		ex[f.Path.Src()] = true
		ex[f.Path.Dst()] = true
	}
	return ex
}

// planPairs is the plan's neighbor pairs (a, b), a < b — one of the two
// directed links the plan stores per pair — as the candidate set for link
// flaps, without listing them: pair i is in row a, where first[a] ≤ i <
// first[a+1], the (i − first[a])-th of the row's neighbors above a. The
// pairs are in row order, each row ascending.
type planPairs struct {
	plan  *radio.LinkPlan
	first []int // first[a]: the index of row a's first pair; first[n] the count
}

func newPlanPairs(plan *radio.LinkPlan) planPairs {
	p := planPairs{plan: plan, first: make([]int, plan.Stations()+1)}
	for a := range plan.Stations() {
		above := 0
		plan.EachAscNeighborID(a, func(j int32) {
			if int(j) > a {
				above++
			}
		})
		p.first[a+1] = p.first[a] + above
	}
	return p
}

func (p planPairs) Len() int { return p.first[len(p.first)-1] }

func (p planPairs) Pair(i int) [2]pkt.NodeID {
	k, _ := slices.BinarySearch(p.first, i+1)
	a := k - 1
	skip, b := i-p.first[a], int32(0)
	p.plan.EachAscNeighborID(a, func(j int32) {
		if int(j) > a {
			if skip == 0 {
				b = j
			}
			skip--
		}
	})
	return [2]pkt.NodeID{pkt.NodeID(a), pkt.NodeID(b)}
}

// epochLenFor resolves the epoch length of a time-varying config: an
// active mobility spec wins (fault overlays ride its boundaries), a
// fault-only config uses the fault spec's epoch.
func epochLenFor(cfg *Config) sim.Time {
	if cfg.Mobility.active() {
		return cfg.Mobility.epochLen()
	}
	return cfg.Faults.EpochLen()
}

// check cheaply verifies that the snapshot plausibly matches the run's
// config. It cannot prove full equality (that is the caller's contract);
// it catches the gross mismatches — wrong topology, wrong flow set —
// that would otherwise corrupt a run silently.
func (w *World) check(cfg *Config) error {
	if w.plan.Stations() != len(cfg.Positions) {
		return fmt.Errorf("network: World built for %d stations, config has %d",
			w.plan.Stations(), len(cfg.Positions))
	}
	if w.flows != len(cfg.Flows) {
		return fmt.Errorf("network: World built for %d flows, config has %d",
			w.flows, len(cfg.Flows))
	}
	if w.table == nil && cfg.Routing.active() {
		return fmt.Errorf("network: World built without a link table, config routing is active")
	}
	if (w.policy != nil) != (cfg.Routing.Kind != RouteStatic) {
		return fmt.Errorf("network: World route policy (%v) does not match config routing %s",
			w.policy != nil, cfg.Routing.Kind)
	}
	if (w.faults != nil) != cfg.Faults.Active() {
		return fmt.Errorf("network: World fault schedule (%v) does not match config faults (%v)",
			w.faults != nil, cfg.Faults.Active())
	}
	if (w.epochLen > 0) != (cfg.Mobility.active() || cfg.Faults.Active()) {
		return fmt.Errorf("network: World time-variance (epochLen %v) does not match config (mobility %s, faults %v)",
			w.epochLen, cfg.Mobility.Kind, cfg.Faults.Active())
	}
	if w.epochLen > 0 {
		if want := epochLenFor(cfg); w.epochLen != want {
			return fmt.Errorf("network: World built with epoch %v, config wants %v",
				w.epochLen, want)
		}
		if want := int((cfg.Duration - 1) / w.epochLen); want != len(w.epochs) {
			return fmt.Errorf("network: World holds %d epoch worlds, config duration %v needs %d",
				len(w.epochs), cfg.Duration, want)
		}
	}
	return nil
}
