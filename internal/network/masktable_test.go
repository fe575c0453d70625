package network

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ripple/internal/fault"
	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
)

// scratchEpochTable is the link table of one epoch built from nothing — a
// new link plan over the epoch's positions, every pair of it probed — and,
// under a fault overlay, probed through the overlay: down stations and
// blocked links read 0, a noise penalty raises the decode threshold of the
// pair. This is how derive built every masked epoch's table before it
// filtered the clean one, kept as the reference the filter and the patched
// clean lineage are held to. It reports whether the overlay was in effect.
func scratchEpochTable(cfg *Config, fs *fault.Schedule, positions []radio.Pos, at sim.Time) (*routing.Table, bool) {
	plan := radio.NewLinkPlan(cfg.Radio, positions)
	masked := fs != nil && fs.MaskedAt(at)
	var noise []float64
	if masked {
		noise = fs.NoiseDBAt(at, nil)
	}
	return routing.NewSparseTableSym(plan.Stations(), func(a pkt.NodeID, yield func(int32, float64)) {
		plan.EachAscNeighbor(int(a), func(j int32, d float64) {
			b := pkt.NodeID(j)
			rc := cfg.Radio
			if masked {
				if fs.StationDownAt(a, at) || fs.StationDownAt(b, at) || fs.LinkBlockedAt(a, b, at) {
					yield(j, 0)
					return
				}
				if pen := max(noise[a], noise[b]); pen > 0 {
					rc.RXThreshDBm += pen
				}
			}
			yield(j, 1-rc.LossProb(d))
		})
	}, minLinkProb), masked
}

// epochProvenance counts, over a chain of epochs, how each world's table
// came about: by what it is (masked or clean) and what its predecessor was;
// and, apart, the epochs in which nobody moved but a fault toggled (a world
// of its own over its predecessor's plan and clean table) and the epochs
// that moved next after one, whose clean table is patched from a table the
// toggled world shared.
type epochProvenance struct {
	maskedAfterClean, maskedAfterMasked, cleanAfterMasked, cleanAfterClean int
	sharedPlanToggled, movedAfterToggle                                    int
}

// checkEpochTables replays cfg's trajectories and holds the tables derive
// builds to scratchEpochTable at each epoch's positions and boundary, off,
// adjID and adjETX bit for bit (a Table is those three and a count, no
// stored value is a NaN, and ETX never yields a negative zero). The tables
// do not depend on the policy kind, and only a dynamic policy's world keeps
// one, so they are read from a RouteCongestion world, after its whole build:
// a table the lineage built over again while a world kept it would differ.
// Every epoch world of the same config under RouteETX keeps none, and routes
// each flow as ETX routing over the scratch table does, so the tables it
// built over recycled arrays were right while it routed on them. each, when
// set, is handed every epoch's boundary; prov is added to.
func checkEpochTables(t *testing.T, name string, cfg Config, prov *epochProvenance, each func(at sim.Time, fs *fault.Schedule)) {
	t.Helper()
	cfg.Normalize()
	cfg.Routing = RoutingSpec{Kind: RouteCongestion}
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if w.Epochs() == 0 {
		t.Fatalf("%s: no epoch worlds", name)
	}
	etxCfg := cfg
	etxCfg.Routing = RoutingSpec{Kind: RouteETX}
	etx, err := BuildWorld(etxCfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	pos := append([]radio.Pos(nil), cfg.Positions...)
	step := func([]radio.Pos) { /* fault-only worlds stand still */ }
	if cfg.Mobility.active() {
		model, err := cfg.Mobility.model(cfg.Positions)
		if err != nil {
			t.Fatal(err)
		}
		step = model.Step
	}
	prevMasked, prevToggled, prev := false, false, w
	for e, ew := range w.epochs {
		step(pos)
		at := sim.Time(e+1) * w.epochLen
		want, masked := scratchEpochTable(&cfg, w.faults, pos, at)
		if ew.masked != masked {
			t.Fatalf("%s epoch %d: world masked %v, overlay in effect %v", name, e, ew.masked, masked)
		}
		if got := keptTable(t, ew); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s epoch %d (masked %v after masked %v): derived table (%d links) differs from the build from nothing (%d links)",
				name, e, masked, prevMasked, got.Links(), want.Links())
		}
		ee := etx.epochs[e]
		if ee.policy != nil {
			t.Fatalf("%s epoch %d: a RouteETX world keeps its policy", name, e)
		}
		for i, f := range cfg.Flows {
			p, err := want.ShortestPath(f.Path.Src(), f.Path.Dst())
			switch {
			case err != nil && !ee.stale[i] && !ee.unreach[i]:
				t.Fatalf("%s epoch %d flow %d: no ETX route, yet route %v is neither stale nor unreachable", name, e, i, ee.routes[i])
			case err == nil && !slices.Equal(ee.routes[i], p):
				t.Fatalf("%s epoch %d flow %d: RouteETX route %v, ETX routing over the epoch's table %v", name, e, i, ee.routes[i], p)
			}
		}
		switch {
		case ew == prev: // nothing changed: the predecessor itself
		case ew.plan == prev.plan:
			prov.sharedPlanToggled++
			prevToggled = true
		case prevToggled:
			prov.movedAfterToggle++
			prevToggled = false
		}
		switch {
		case masked && prevMasked:
			prov.maskedAfterMasked++
		case masked:
			prov.maskedAfterClean++
		case prevMasked:
			prov.cleanAfterMasked++
		default:
			prov.cleanAfterClean++
		}
		prevMasked, prev = masked, ew
		if each != nil {
			each(at, w.faults)
		}
	}
}

// TestMaskedTableIsFilteredCleanTable is the differential test of the
// masked arm and of the lineage's recycling: in every epoch of the
// world-derivation matrix's scenarios — pruned and unpruned, waypoint under
// the heavy fault profile (every epoch masked) and Markov under the light
// one (clean and masked interleaved) — of a Markov world that stands still
// through most epochs while faults toggle, and of a fault-only city in
// which noise bursts, the partition window and flapped links are in effect
// together, the table derive builds — the clean lineage's table, filtered
// through the overlay where one is in effect — is the table probed from
// nothing through that overlay. Between them the scenarios build a table
// after every provenance: masked after clean, clean after masked, and a
// world over an unmoved plan with a fault toggled.
func TestMaskedTableIsFilteredCleanTable(t *testing.T) {
	var prov epochProvenance
	for _, pruned := range []bool{false, true} {
		for _, mob := range []MobilityKind{MobilityWaypoint, MobilityMarkov} {
			name := fmt.Sprintf("pruned=%v/%s", pruned, mob)
			checkEpochTables(t, name, worldPinConfig(pruned, mob, RoutingSpec{Kind: RouteETX}), &prov, nil)
		}
	}
	// Recycling: a clean table kept by an unmasked world, then filtered in
	// an epoch nobody moved, must not be built over when the epochs after
	// it move. 48 stations at stay 0.99 leave most of 29 epochs unmoved.
	still := worldPinConfig(true, MobilityMarkov, RoutingSpec{Kind: RouteETX})
	still.Mobility.Stay = 0.99
	still.Duration = 6 * sim.Second
	checkEpochTables(t, "still", still, &prov, nil)
	if prov.maskedAfterClean == 0 || prov.maskedAfterMasked == 0 || prov.cleanAfterMasked == 0 || prov.cleanAfterClean == 0 ||
		prov.sharedPlanToggled == 0 || prov.movedAfterToggle == 0 {
		t.Fatalf("the mobile scenarios miss a provenance: %+v", prov)
	}

	// Everything at once: the same city and faults with the partition taken
	// out draws the same flaps (each process has its own stream), so a pair
	// it blocks is blocked by a flap.
	cfg := combinedFaultsConfig()
	flapsOnly := cfg.Faults
	flapsOnly.PartitionDur = 0
	root, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := LinkTable(cfg.Radio, cfg.Positions)
	if err != nil {
		t.Fatal(err)
	}
	links := listPairs(root.plan)
	flaps := fault.Build(flapsOnly, cfg.Duration, cfg.Positions, exemptEndpoints(&cfg), links)
	together, noisyLinks := 0, 0
	checkEpochTables(t, "combined", cfg, &prov, func(at sim.Time, fs *fault.Schedule) {
		noise := fs.NoiseDBAt(at, nil)
		partitioned := at >= cfg.Faults.PartitionAt && at < cfg.Faults.PartitionAt+cfg.Faults.PartitionDur
		flapped := slices.ContainsFunc(links, func(l [2]pkt.NodeID) bool { return flaps.LinkBlockedAt(l[0], l[1], at) })
		if partitioned && flapped && slices.Max(noise) > 0 {
			together++
			// The penalty has to bite: links of the clean table whose ends
			// it reaches, re-evaluated, not only dropped.
			for _, l := range links {
				if max(noise[l[0]], noise[l[1]]) > 0 && clean.LinkETX(l[0], l[1]) < 100 {
					noisyLinks++
				}
			}
		}
	})
	if together == 0 || noisyLinks == 0 {
		t.Fatalf("noise, partition and flaps in effect together at %d epoch boundaries, over %d usable links under a penalty: nothing combined was compared",
			together, noisyLinks)
	}
}

// combinedFaultsConfig is the 200-station city standing still under every
// link-level fault process at once: two wide noise bursts that are on more
// often than off, a partition window across most of the run, and enough
// flapping links that some are down at any instant; churn is light, so most
// of what the filter does here is blocking and re-evaluating.
func combinedFaultsConfig() Config {
	cfg := fanoutCityConfig(Ripple)
	cfg.Mobility = MobilitySpec{}
	cfg.Faults = fault.Spec{
		Seed: 11, Epoch: 100 * sim.Millisecond,
		MTBF: 5 * sim.Second, MTTR: 200 * sim.Millisecond,
		FlapLinks: 300, FlapUp: 200 * sim.Millisecond, FlapDown: 200 * sim.Millisecond,
		NoiseBursts: 2, NoiseEvery: 150 * sim.Millisecond, NoiseLen: 300 * sim.Millisecond,
		NoiseRadius: 400, NoisePenaltyDB: 6,
		PartitionAt: 200 * sim.Millisecond, PartitionDur: sim.Second,
	}
	cfg.Duration = 1500 * sim.Millisecond
	return cfg
}
