package network

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"ripple/internal/golden"
	"ripple/internal/israce"
	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

// runOn is Run on an arena of the caller's choosing.
func runOn(r *run, cfg Config) (*Result, error) {
	world, err := prepare(&cfg)
	if err != nil {
		return nil, err
	}
	return r.execute(&cfg, world), nil
}

// arenaCases is the pin corpus, each case on a World built once, with deep
// audit switched on for every third (the 200-station city excepted, where
// it costs a second a run: CI's deep-audit job audits them all) and each
// traced case run untraced as well.
func arenaCases(t *testing.T) []pinCase {
	var cases []pinCase
	for _, c := range pinCases() {
		c.cfg.Audit = len(cases)%3 == 0 && len(c.cfg.Positions) < 100
		world, err := BuildWorld(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		c.cfg.World = world
		cases = append(cases, c)
		if c.traced {
			c.name, c.traced, c.cfg.Audit = c.name+"/untraced", false, !c.cfg.Audit
			cases = append(cases, c)
		}
	}
	return cases
}

// assertEmptied checks what execute leaves behind, field by field: the run's
// own fields, and every field of the engine, the medium, its frame pool, the
// packet pool and the route book, read zero — whether or not leaving them set could change
// a result: an insertion sequence or a transmission serial that carried over
// would not, a trace hook or a link plan left in place pins what the caller
// lent — except the capacity named here, and the parts of that which a run
// fills are empty. The medium's row cache is kept whole: it holds the
// transmit rows of the plans it ran on, filed by their serials, which keep
// no plan alive. The route book keeps its flow records, emptied (each with
// its sender records' capacity), and its path slab, emptied and sized to
// every path the last run cut. The arena's own new-in-place parts — the
// noise slab the fault series writes, the epoch timer bound once to the
// arena — are initialised by the run that uses them.
func assertEmptied(t *testing.T, after string, r *run) {
	t.Helper()
	// Every field of v reads zero, except the kept ones, which are empty, and
	// the scratch ones, overwritten before they are read.
	check := func(name string, v reflect.Value, kept, scratch []string) {
		for i := 0; i < v.NumField(); i++ {
			f, field := v.Field(i), v.Type().Field(i).Name
			switch {
			case slices.Contains(scratch, field):
			case !slices.Contains(kept, field):
				if !f.IsZero() {
					t.Errorf("after %s: %s.%s is not zero", after, name, field)
				}
			case (f.Kind() == reflect.Slice || f.Kind() == reflect.Map) && f.Len() != 0:
				t.Errorf("after %s: %s.%s holds %d entries", after, name, field, f.Len())
			}
		}
	}
	check("run", reflect.ValueOf(r).Elem(), []string{"arena"}, nil)
	check("eng", reflect.ValueOf(&r.eng).Elem(), []string{"heap", "lane", "free"}, nil)
	medium := reflect.ValueOf(&r.medium).Elem()
	check("medium", medium, []string{"stations", "freeAir", "frames", "pOKByBits", "down", "noiseDB", "rows"},
		[]string{"slabOf", "pktOKBuf"})
	check("medium.frames", medium.FieldByName("frames"), []string{"free"}, nil)
	check("pool", reflect.ValueOf(&r.pool).Elem(), []string{"free"}, nil)
	routes := reflect.ValueOf(&r.routes).Elem()
	check("routes", routes, []string{"flows", "paths"}, nil)
	check("routes.paths", routes.FieldByName("paths"), []string{"buf"}, nil)
	if len(r.endpoints) != 0 {
		t.Errorf("after %s: %d endpoints left", after, len(r.endpoints))
	}
}

// twinCities is two mobile, faulty 200-station cities, the benchmark's in
// miniature, run until every epoch world has been in effect: the second the
// first shrunk by a tenth, so the two have the same station count and
// different rows under every plan — what a row cache keyed by anything
// less than the plan would mix up.
func twinCities(t *testing.T) [2]pinCase {
	var twins [2]pinCase
	for i, name := range []string{"mobile-faulty city", "mobile-faulty city shrunk"} {
		cfg := cityBenchConfig(true, 1500*sim.Millisecond)
		if i == 1 {
			cfg.Positions = slices.Clone(cfg.Positions)
			for k := range cfg.Positions {
				cfg.Positions[k].X *= 0.9
				cfg.Positions[k].Y *= 0.9
			}
		}
		world, err := BuildWorld(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg.World = world
		twins[i] = pinCase{name: name, cfg: cfg}
	}
	return twins
}

// Which arena a run is assembled on is invisible: every pinned scenario and
// the twin cities, run twice on one arena in a shuffled order — scheme after
// scheme on the same slabs, a 200-station city before a five-station line,
// runs that end with stations down, exchanges open and receptions on the
// air, audit on then off, traced then not — gives byte for byte what it
// gives on a new arena; and so do the twin cities run one after the other,
// each on the rows the other left.
func TestArenaReuseIsInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every pinned scenario three times")
	}
	if israce.Enabled {
		t.Skip("one goroutine, 170 runs: three minutes under the race detector, which has nothing to find here")
	}
	twins := twinCities(t)
	cases := append(arenaCases(t), twins[:]...)
	want := make([][]byte, len(cases))
	for i, c := range cases {
		want[i] = golden.Marshal(t, pinOf(t, new(run), c.cfg, c.traced))
	}
	order := rand.New(rand.NewPCG(21, 0))
	shared := new(run)
	for pass := 0; pass < 2; pass++ {
		for _, i := range order.Perm(len(cases)) {
			got := golden.Marshal(t, pinOf(t, shared, cases[i].cfg, cases[i].traced))
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("pass %d: %s differs on a reused arena (new → reused):\n%s",
					pass, cases[i].name, golden.Diff(want[i], got))
			}
			assertEmptied(t, cases[i].name, shared)
		}
	}
	twin := len(cases) - 2
	for k := 0; k < 4; k++ {
		i := twin + k%2
		if got := golden.Marshal(t, pinOf(t, shared, cases[i].cfg, false)); !bytes.Equal(got, want[i]) {
			t.Fatalf("run %d of the alternation: %s differs on a reused arena (new → reused):\n%s",
				k, cases[i].name, golden.Diff(want[i], got))
		}
	}
}

// rowBuilds is how many transmit rows the arena's medium has built.
func rowBuilds(r *run) int64 {
	return reflect.ValueOf(&r.medium).Elem().FieldByName("rows").FieldByName("builds").Int()
}

// The row cache builds a transmitter's row once per plan and arena: the
// first run of a world builds exactly one row for each plan a station
// transmitted under — the root's and each epoch's, told apart at the
// moment of the transmission — and a second run of it on the same arena
// builds none. The twin city, of the same station count, is a new world:
// it builds its own rows, and the first city's, run again after it, are
// built anew.
func TestArenaBuildsEachRowOnce(t *testing.T) {
	twins := twinCities(t)
	arena := new(run)
	type use struct {
		plan *radio.LinkPlan
		tx   pkt.NodeID
	}
	for k, c := range []struct {
		twin  int
		build bool
	}{{0, true}, {0, false}, {1, true}, {0, true}} {
		cfg := twins[c.twin].cfg
		used := map[use]bool{}
		cfg.Trace = func(_ sim.Time, event string, node pkt.NodeID, _ *pkt.Frame) {
			if event == "tx" {
				used[use{arena.medium.Plan(), node}] = true
			}
		}
		before := rowBuilds(arena)
		if _, err := runOn(arena, cfg); err != nil {
			t.Fatal(err)
		}
		plans := map[*radio.LinkPlan]bool{}
		for u := range used {
			plans[u.plan] = true
		}
		if len(plans) < 3 {
			t.Fatalf("run %d transmitted under %d plans: the epochs are not exercised", k, len(plans))
		}
		built, distinct := rowBuilds(arena)-before, int64(len(used))
		if c.build && built != distinct || !c.build && built != 0 {
			t.Errorf("run %d (%s) built %d rows for %d (plan, transmitter) pairs", k, twins[c.twin].name, built, distinct)
		} else {
			t.Logf("run %d (%s): %d rows built, %d (plan, transmitter) pairs", k, twins[c.twin].name, built, distinct)
		}
	}
}

// A run that panics poisons its arena: Run must leave it to the collector,
// not hand it to the next run.
func TestArenaDiscardedAfterPanic(t *testing.T) {
	cfg := orderGridConfig(Ripple)
	want := golden.Marshal(t, pinOf(t, new(run), cfg, false))

	// The arena put back last is the one the next run takes.
	poisoned := new(run)
	keepArena(poisoned)
	bomb := cfg
	events := 0
	bomb.Trace = func(sim.Time, string, pkt.NodeID, *pkt.Frame) {
		if events++; events == 5000 {
			panic("boom")
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the trace hook never panicked")
			}
		}()
		Run(bomb)
	}()
	if poisoned.cfg == nil || poisoned.eng.Processed() == 0 {
		t.Fatal("no arena died mid-run: the panic is not exercised")
	}

	if got := golden.Marshal(t, pinOf(t, nil, cfg, false)); !bytes.Equal(got, want) {
		t.Fatalf("the run after a panicked one differs (new arena → after):\n%s", golden.Diff(want, got))
	}
	if poisoned.cfg == nil || poisoned.cfg.Seed != bomb.Seed || poisoned.eng.Pending() == 0 {
		t.Fatal("the poisoned arena was reset: Run took it back")
	}
	// The cache holds clean arenas only.
	for arenas.idle.Len() > 0 {
		if r := takeArena(); r == poisoned || r.cfg != nil {
			t.Fatal("the cache handed out an arena that was not reset")
		}
	}
}

// What one saturated 3-hop RIPPLE second allocates on a new arena — the
// assembly: engine, medium, four stations' agents, the TCP connection, and the
// warm-up of their pools — and on the arena that run leaves: the World Run
// builds when it is handed none, its copy of the Config, validate's flow-ID
// set, the Result. Each budget is the measured number × 1.25: first (443,
// 38), then (405, 20) once the route book cut its forwarder lists from a
// slab the arena keeps (the second run's 21 was 48's basis). Assembly
// growing back into the second run, or a first run that builds more than it
// did, fails here; what a warm run over a World it was handed allocates is
// held to the Result alone by TestWarmRerunAllocatesOnlyItsResult.
func TestArenaAllocationBudgets(t *testing.T) {
	if auditEnv() {
		t.Skip("the deep audit quarantines released frames instead of reusing them")
	}
	line, path := topology.Line(3)
	cfg := Config{Positions: line.Positions, Scheme: Ripple,
		Flows: []FlowSpec{{ID: 1, Path: path, Kind: FTP}}, Duration: sim.Second}
	arena := new(run)
	for _, c := range []struct {
		what   string
		budget uint64
	}{
		{"a run on a new arena", 555},
		{"the same run again on the arena it left", 25},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := runOn(arena, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n > c.budget {
			t.Errorf("%s allocated %d objects, budget %d", c.what, n, c.budget)
		} else {
			t.Logf("%s: %d objects", c.what, n)
		}
	}
}

// Which arena Run takes depends on the order of the calls alone: one caller
// running scenario after scenario gets the same arena every time, whatever
// the scheduler and the collector do in between, and the cache never holds
// more idle arenas than GOMAXPROCS.
func TestArenaCacheIsLastInFirstOut(t *testing.T) {
	for arenas.idle.Len() > 0 {
		takeArena()
	}
	a, b := new(run), new(run)
	keepArena(a)
	keepArena(b)
	cfg := orderGridConfig(Ripple)
	for i := 0; i < 3; i++ {
		if i > 0 {
			runtime.GC()
			runtime.GC()
		}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		if cap(b.schemes) == 0 || cap(a.schemes) != 0 {
			t.Fatalf("run %d was not assembled on the arena put back last", i)
		}
	}
	if got := takeArena(); got != b {
		t.Fatal("the arena put back last is not the one taken next")
	}
	if got := takeArena(); got != a {
		t.Fatal("the arena under it is not the one taken after")
	}
	limit := runtime.GOMAXPROCS(0)
	for i := 0; i < limit+3; i++ {
		keepArena(new(run))
	}
	if n := arenas.idle.Len(); n != limit {
		t.Fatalf("%d arenas idle, want GOMAXPROCS = %d", n, limit)
	}
}
