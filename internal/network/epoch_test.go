package network

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"ripple/internal/campaign/pool"
	"ripple/internal/fault"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

// mobileTestConfig is worldTestConfig with motion: short epochs so a
// 400 ms run crosses several boundaries.
func mobileTestConfig(kind MobilityKind) Config {
	cfg := worldTestConfig()
	cfg.Mobility = MobilitySpec{Kind: kind, Epoch: 50 * sim.Millisecond, MaxSpeed: 30}
	return cfg
}

// TestMobilityOffBitIdentical pins the compatibility half of the epoch
// machinery: a zero MobilitySpec builds no epoch worlds, schedules no swap
// events, and every mobility knob is inert while Kind is MobilityStatic —
// results are bit-identical to a config that never heard of the field.
func TestMobilityOffBitIdentical(t *testing.T) {
	cfg := worldTestConfig()
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.Epochs() != 0 || w.EpochLen() != 0 {
		t.Fatalf("static world grew epochs: %d epochs, epochLen %v", w.Epochs(), w.EpochLen())
	}
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Knobs without a model must change nothing, down to the event count.
	knobs := cfg
	knobs.Mobility = MobilitySpec{Epoch: 123 * sim.Millisecond, Seed: 99, MaxSpeed: 50, Places: 7}
	got, err := Run(knobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Fatalf("MobilityStatic with set knobs diverged:\n%+v\nvs\n%+v", base, got)
	}

	// Turning a model on must visibly change the run (epoch swaps are
	// engine events), or the off-path assertion above proves nothing.
	mobile, err := Run(mobileTestConfig(MobilityWaypoint))
	if err != nil {
		t.Fatal(err)
	}
	if mobile.Events <= base.Events {
		t.Fatalf("mobile run processed %d events, static %d — swaps not scheduled?",
			mobile.Events, base.Events)
	}
}

// unnamed returns a copy of w, its epoch worlds copied alike, whose link
// plans are copies with their serial zeroed. A serial names one build of a
// plan, the key a medium's row cache files its rows under, so two builds of
// one plan differ in it and in nothing else: reflect.DeepEqual between
// unnamed worlds compares what was built.
func unnamed(w *World) *World { return unnamedIn(w, map[*World]*World{}) }

// unnamedIn is unnamed with the copies made so far: an epoch in which
// nothing changed is its predecessor, the root world included.
func unnamedIn(w *World, made map[*World]*World) *World {
	if c, ok := made[w]; ok {
		return c
	}
	c := *w
	made[w] = &c
	plan := *w.plan
	serial := reflect.ValueOf(&plan).Elem().FieldByName("serial")
	reflect.NewAt(serial.Type(), unsafe.Pointer(serial.UnsafeAddr())).Elem().SetZero()
	c.plan = &plan
	c.epochs = make([]*World, len(w.epochs))
	for i, ew := range w.epochs {
		c.epochs[i] = unnamedIn(ew, made)
	}
	return &c
}

// TestEpochWorldsPureAndSeedIndependent: the epoch sequence is a pure
// function of the Config's non-seed fields — rebuilt bit-identically, and
// untouched by Config.Seed (trajectories draw from MobilitySpec.Seed).
func TestEpochWorldsPureAndSeedIndependent(t *testing.T) {
	for _, kind := range []MobilityKind{MobilityWaypoint, MobilityMarkov} {
		cfg := mobileTestConfig(kind)
		a, err := BuildWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := BuildWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Seed = 12345
		c, err := BuildWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(unnamed(a), unnamed(b)) {
			t.Fatalf("%s: two builds of one config differ", kind)
		}
		if !reflect.DeepEqual(unnamed(a), unnamed(c)) {
			t.Fatalf("%s: epoch worlds depend on Config.Seed", kind)
		}
		if a.Epochs() == 0 {
			t.Fatalf("%s: mobile config built no epoch worlds", kind)
		}
		// Distinct trajectory seeds must actually move differently.
		cfg.Mobility.Seed = 7
		d, err := BuildWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(unnamed(a).epochs, unnamed(d).epochs) {
			t.Fatalf("%s: trajectory seed change left every epoch identical", kind)
		}
	}
}

// TestEpochIncrementalMatchesScratch is the world-level equivalence bar:
// every epoch world the incremental path derives (plan row-patching, table
// patching, route carry-over) must equal a root build over that epoch's
// positions, bit for bit — on a pruned plan and on an unpruned one, whose
// table used to be rebuilt from scratch each epoch — and, under station
// churn, whatever the epoch before it was: a masked epoch's table is the
// build from nothing through the overlay (scratchEpochTable), and a clean
// epoch after a masked one, whose table is patched from the clean table the
// lineage carried through the masked epoch, is again the root build's.
func TestEpochIncrementalMatchesScratch(t *testing.T) {
	var masked, cleanAfterMasked int
	for _, churn := range []bool{false, true} {
		for _, prune := range []float64{radio.DefaultPruneSigma, 0} {
			for _, kind := range []MobilityKind{MobilityWaypoint, MobilityMarkov} {
				cfg := mobileTestConfig(kind)
				if churn {
					cfg.Faults = fault.Spec{Seed: 3, MTBF: 120 * sim.Millisecond, MTTR: 40 * sim.Millisecond}
				}
				cfg.Normalize()
				cfg.Radio.PruneSigma = prune
				name := fmt.Sprintf("churn %v prune %g %s", churn, prune, kind)
				w, err := BuildWorld(cfg)
				if err != nil {
					t.Fatal(err)
				}
				model, err := cfg.Mobility.model(cfg.Positions)
				if err != nil {
					t.Fatal(err)
				}
				pos := append([]radio.Pos(nil), cfg.Positions...)
				prevMasked := false
				for e, ew := range w.epochs {
					model.Step(pos)
					want, err := derive(&cfg, nil, radio.NewLinkPlan(cfg.Radio, pos), 0)
					if err != nil {
						t.Fatalf("%s epoch %d: %v", name, e, err)
					}
					if !reflect.DeepEqual(unnamed(ew).plan, unnamed(want).plan) {
						t.Fatalf("%s epoch %d: incremental plan differs from scratch build", name, e)
					}
					if ew.masked {
						masked++
						through, _ := scratchEpochTable(&cfg, w.faults, pos, sim.Time(e+1)*w.epochLen)
						if !reflect.DeepEqual(ew.table, through) {
							t.Fatalf("%s epoch %d: masked table differs from the build from nothing through the overlay", name, e)
						}
						prevMasked = true
						continue
					}
					if prevMasked {
						cleanAfterMasked++
					}
					prevMasked = false
					if !reflect.DeepEqual(ew.table, want.table) {
						t.Fatalf("%s epoch %d: incremental table differs from scratch build", name, e)
					}
					if !reflect.DeepEqual(ew.routes, want.routes) {
						t.Fatalf("%s epoch %d: routes %v, want %v", name, e, ew.routes, want.routes)
					}
				}
			}
		}
	}
	if masked == 0 || cleanAfterMasked == 0 {
		t.Fatalf("%d masked epochs, %d clean ones after a masked one: the churn cells exercise neither", masked, cleanAfterMasked)
	}
}

// TestEpochWorldDeterministicAcrossPools: a mobile scenario's seed-runs are
// bit-identical whether each run builds its own epoch worlds or all share
// one prebuilt sequence, and at any pool width.
func TestEpochWorldDeterministicAcrossPools(t *testing.T) {
	for _, kind := range []MobilityKind{MobilityWaypoint, MobilityMarkov} {
		cfg := mobileTestConfig(kind)
		seeds := []uint64{1, 2, 3, 4}

		perRun := make([]*Result, len(seeds))
		for i, s := range seeds {
			c := cfg
			c.Seed = s
			r, err := Run(c)
			if err != nil {
				t.Fatal(err)
			}
			perRun[i] = r
		}

		w, err := BuildWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		shared := cfg
		shared.World = w
		narrow, _, err := runSeedsOn(pool.New(1), shared, seeds)
		if err != nil {
			t.Fatal(err)
		}
		wide, _, err := runSeedsOn(pool.New(8), shared, seeds)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seeds {
			if !reflect.DeepEqual(perRun[i], narrow[i]) {
				t.Fatalf("%s seed %d: shared epoch worlds diverge from per-run build", kind, seeds[i])
			}
			if !reflect.DeepEqual(narrow[i], wide[i]) {
				t.Fatalf("%s seed %d: result depends on pool width", kind, seeds[i])
			}
		}
	}
}

// TestSharedEpochWorldRace hammers one epoch-world sequence from many
// concurrent runs; under -race a single write to any shared epoch's plan,
// table, policy or routes fails the test (the mobile analogue of
// TestSharedWorldRace). The congestion case is the one whose shared
// per-epoch policy is called mid-run — every run's re-route tick asks it for
// routes under that run's own backlog — through the K-sizing wrapper.
func TestSharedEpochWorldRace(t *testing.T) {
	for _, spec := range []RoutingSpec{
		{Kind: RouteETX},
		{Kind: RouteCongestion, K: 2, Epoch: 40 * sim.Millisecond},
	} {
		cfg := mobileTestConfig(MobilityMarkov)
		cfg.Routing = spec
		cfg.Duration = 300 * sim.Millisecond
		w, err := BuildWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if w.Epochs() == 0 {
			t.Fatal("race test needs epoch worlds")
		}
		cfg.World = w
		seeds := make([]uint64, 16)
		for i := range seeds {
			seeds[i] = uint64(i + 1)
		}
		if _, _, err := runSeedsOn(pool.New(8), cfg, seeds); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEpochTablesStaySparseCity guards world construction against storing
// all pairs: on a pruned city-scale world the base snapshot and every
// epoch's rebuild must keep the plan pruned and store only in-range links —
// an unpruned link plan holds all n·(n−1) ordered pairs (36 MB at N=1000,
// per epoch) — and the table only the usable ones among them.
func TestEpochTablesStaySparseCity(t *testing.T) {
	top, _ := topology.CityN(1000, 3)
	cfg := Config{
		Positions: top.Positions,
		Radio:     topology.CityRadio(),
		Scheme:    Ripple,
		Flows: []FlowSpec{
			{ID: 1, Path: endpointPath(0, 999), Kind: FTP},
		},
		Routing:  RoutingSpec{Kind: RouteETX},
		Duration: 1200 * sim.Millisecond,
		Mobility: MobilitySpec{Kind: MobilityMarkov},
	}
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.Epochs() == 0 {
		t.Fatal("mobile city built no epoch worlds")
	}
	n := len(cfg.Positions)
	check := func(name string, plan *radio.LinkPlan, table *routing.Table) {
		t.Helper()
		if !plan.Pruned() || plan.Links() > n*(n-1)/2 {
			t.Errorf("%s: link plan is dense: pruned=%v, %d of %d ordered pairs stored",
				name, plan.Pruned(), plan.Links(), n*(n-1))
		}
		if table.Links() == 0 || table.Links() > plan.Links()/2 {
			t.Errorf("%s: link table stores %d links over a plan of %d: usable links are a small share of in-range ones",
				name, table.Links(), plan.Links())
		}
	}
	check("base world", w.plan, w.table)
	for e, ew := range w.epochs {
		check(fmt.Sprintf("epoch %d", e), ew.plan, ew.table)
	}
}

// TestRouteGeoResolvesThroughWorld wires the geographic policy through
// BuildWorld: on a line the greedy route must exist, be valid, and end at
// the declared destination.
func TestRouteGeoResolvesThroughWorld(t *testing.T) {
	cfg := worldTestConfig()
	cfg.Routing = RoutingSpec{Kind: RouteGeo}
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := w.routes[0]
	if err := p.Validate(); err != nil {
		t.Fatalf("geo route %v invalid: %v", p, err)
	}
	if p.Src() != cfg.Flows[0].Path.Src() || p.Dst() != cfg.Flows[0].Path.Dst() {
		t.Fatalf("geo route %v has wrong endpoints", p)
	}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("geo-routed run failed: %v", err)
	}
	// And under mobility, with fresh geometry per epoch.
	mob := mobileTestConfig(MobilityWaypoint)
	mob.Routing = RoutingSpec{Kind: RouteGeo}
	if _, err := Run(mob); err != nil {
		t.Fatalf("mobile geo-routed run failed: %v", err)
	}
}

// TestWorldCheckRejectsMobilityMismatch: a World must not be reusable
// across configs that disagree on motion.
func TestWorldCheckRejectsMobilityMismatch(t *testing.T) {
	static := worldTestConfig()
	mobile := mobileTestConfig(MobilityMarkov)

	ws, err := BuildWorld(static)
	if err != nil {
		t.Fatal(err)
	}
	wm, err := BuildWorld(mobile)
	if err != nil {
		t.Fatal(err)
	}

	c := mobile
	c.World = ws
	if _, err := Run(c); err == nil {
		t.Fatal("Run accepted a static World for a mobile config")
	}
	c = static
	c.World = wm
	if _, err := Run(c); err == nil {
		t.Fatal("Run accepted a mobile World for a static config")
	}
	c = mobile
	c.World = wm
	c.Duration = 2 * c.Duration
	if _, err := Run(c); err == nil {
		t.Fatal("Run accepted epoch worlds built for a different duration")
	}
	c = mobile
	c.World = wm
	c.Mobility.Epoch = 75 * sim.Millisecond
	if _, err := Run(c); err == nil {
		t.Fatal("Run accepted epoch worlds built with a different epoch length")
	}
}

// TestUnknownMobilityKindErrors: validation catches a bogus kind before
// any model is constructed.
func TestUnknownMobilityKindErrors(t *testing.T) {
	cfg := worldTestConfig()
	cfg.Mobility.Kind = MobilityKind(42)
	if _, err := BuildWorld(cfg); err == nil {
		t.Fatal("BuildWorld accepted an unknown mobility kind")
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted an unknown mobility kind")
	}
	if got := MobilityKind(42).String(); got != "MobilityKind(42)" {
		t.Fatalf("String() = %q", got)
	}
	var names []string
	for _, k := range []MobilityKind{MobilityStatic, MobilityWaypoint, MobilityMarkov} {
		names = append(names, k.String())
	}
	if !reflect.DeepEqual(names, []string{"static", "waypoint", "markov"}) {
		t.Fatalf("kind names = %v", names)
	}
}

// TestEpochDeriveErrorLeavesNoGoroutine: buildEpochs rebuilds the plan chain
// on a goroutine of its own while the caller derives each epoch's world, and
// an error in a derive must come back to the caller with that goroutine
// gone, not still rebuilding plans nobody will read. No epoch derive fails
// on a config that built a root world, so the test swaps in an unknown route
// policy after the root was built: every epoch's policy build then fails.
func TestEpochDeriveErrorLeavesNoGoroutine(t *testing.T) {
	// A minute of epochs: a plan goroutine left running would still be
	// rebuilding long after the deadline below.
	cfg := cityBenchConfig(true, 60*sim.Second)
	cfg.Normalize()
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.epochs = nil
	bad := cfg
	bad.Routing.Kind = RoutePolicyKind(99)
	err = w.buildEpochs(&bad)
	if err == nil || !strings.Contains(err.Error(), "unknown route policy kind") {
		t.Fatalf("buildEpochs = %v, want the epoch's route policy error", err)
	}
	if len(w.epochs) != 0 {
		t.Fatalf("%d epoch worlds kept after the first failed", len(w.epochs))
	}
	// The plan goroutine's last act is closing the channel the caller
	// drains before it returns; give it a moment to exit after that.
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(100 * time.Millisecond); ; time.Sleep(time.Millisecond) {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "buildEpochs.func") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("buildEpochs returned with its plan goroutine still running:\n%s", stacks)
		}
	}
}

// TestEpochPlanPanicReachesCaller: a panic on the plan goroutine must come
// back as a panic of buildEpochs' caller — where campaign pools and dist
// workers recover a cell's panic into an error — not kill the process. A
// position list one station short of the root plan makes the first Rebuild
// panic on that goroutine.
func TestEpochPlanPanicReachesCaller(t *testing.T) {
	cfg := cityBenchConfig(true, 5*sim.Second)
	cfg.Normalize()
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.epochs = nil
	bad := cfg
	bad.Positions = cfg.Positions[:len(cfg.Positions)-1]
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "different station count") || !strings.Contains(msg, "buildEpochs.func") {
			t.Fatalf("recovered %v, want the Rebuild panic with the plan goroutine's stack", r)
		}
	}()
	err = w.buildEpochs(&bad)
	t.Fatalf("buildEpochs returned %v, want a panic", err)
}
