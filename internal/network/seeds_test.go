package network

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"ripple/internal/campaign/pool"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

func smokeConfig(seed uint64) Config {
	top, path := topology.Line(3)
	return Config{
		Positions: top.Positions,
		Scheme:    Ripple,
		Flows:     []FlowSpec{{ID: 1, Path: path, Kind: FTP}},
		Duration:  sim.Second,
		Seed:      seed,
	}
}

// runSeedsOn runs cfg once per seed on the pool, every run sharing one
// world snapshot, and returns the per-seed results and their Average: the
// shape campaign.Plan's scheduler gives a cell, for the tests of this
// package (which campaign imports, so they cannot import it).
func runSeedsOn(p *pool.Pool, cfg Config, seeds []uint64) ([]*Result, *Result, error) {
	if cfg.World == nil {
		w, err := BuildWorld(cfg)
		if err != nil {
			return nil, nil, err
		}
		cfg.World = w
	}
	results := make([]*Result, len(seeds))
	err := p.Do(len(seeds), func(i int) error {
		c := cfg
		c.Seed = seeds[i]
		var err error
		results[i], err = Run(c)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return results, Average(results), nil
}

func TestRunIsDeterministicPerSeed(t *testing.T) {
	a, err := Run(smokeConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smokeConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalMbps != b.TotalMbps || a.Events != b.Events {
		t.Fatalf("same seed diverged: %.4f/%d vs %.4f/%d",
			a.TotalMbps, a.Events, b.TotalMbps, b.Events)
	}
}

func TestRunDiffersAcrossSeeds(t *testing.T) {
	a, _ := Run(smokeConfig(1))
	b, _ := Run(smokeConfig(2))
	if a.Events == b.Events && a.TotalMbps == b.TotalMbps {
		t.Fatal("different seeds produced identical runs (RNG not wired?)")
	}
}

func TestRunSeedsAveragesConcurrently(t *testing.T) {
	results, avg, err := runSeedsOn(pool.Shared(), smokeConfig(0), []uint64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	var want float64
	for _, r := range results {
		want += r.TotalMbps / 4
	}
	if math.Abs(avg.TotalMbps-want) > 1e-9 {
		t.Fatalf("average = %v, want %v", avg.TotalMbps, want)
	}
}

// TestAverageMeansEveryField pins the fix for the seed repo's semantics
// bug: Events, PktsDelivered and Transfers were summed across seeds while
// every other field was averaged. All fields now carry mean semantics.
func TestAverageMeansEveryField(t *testing.T) {
	a := &Result{
		TotalMbps: 10, Fairness: 1, Events: 1000, Duration: sim.Second,
		Flows: []FlowResult{{
			ID: 1, Kind: FTP, ThroughputMbps: 10, MeanDelay: 40 * sim.Millisecond,
			ReorderRate: 0.2, PktsDelivered: 100, Transfers: 4, MoS: 4, LossRate: 0.1,
		}},
	}
	b := &Result{
		TotalMbps: 20, Fairness: 0.5, Events: 3000, Duration: sim.Second,
		Flows: []FlowResult{{
			ID: 1, Kind: FTP, ThroughputMbps: 20, MeanDelay: 80 * sim.Millisecond,
			ReorderRate: 0.4, PktsDelivered: 301, Transfers: 7, MoS: 2, LossRate: 0.3,
		}},
	}
	avg := Average([]*Result{a, b})
	if avg.TotalMbps != 15 || avg.Fairness != 0.75 {
		t.Errorf("TotalMbps/Fairness = %v/%v", avg.TotalMbps, avg.Fairness)
	}
	if avg.Events != 2000 {
		t.Errorf("Events = %d, want mean 2000 (not sum 4000)", avg.Events)
	}
	f := avg.Flows[0]
	if f.ID != 1 || f.Kind != FTP {
		t.Errorf("flow identity lost: %+v", f)
	}
	if f.ThroughputMbps != 15 || f.MeanDelay != 60*sim.Millisecond {
		t.Errorf("ThroughputMbps/MeanDelay = %v/%v", f.ThroughputMbps, f.MeanDelay)
	}
	if math.Abs(f.ReorderRate-0.3) > 1e-12 || math.Abs(f.LossRate-0.2) > 1e-12 {
		t.Errorf("ReorderRate/LossRate = %v/%v", f.ReorderRate, f.LossRate)
	}
	if f.PktsDelivered != 201 {
		t.Errorf("PktsDelivered = %d, want rounded mean 201 (not sum 401)", f.PktsDelivered)
	}
	if f.Transfers != 6 {
		t.Errorf("Transfers = %d, want rounded mean 6 (not sum 11)", f.Transfers)
	}
	if f.MoS != 3 {
		t.Errorf("MoS = %v", f.MoS)
	}
	if Average(nil) != nil {
		t.Error("Average(nil) must be nil")
	}
}

// TestRunSeedsMatchesAnyPoolSize asserts seed-indexed determinism: the
// same seeds produce bit-identical averages whether runs execute serially
// or across many workers.
func TestRunSeedsMatchesAnyPoolSize(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4}
	_, serial, err := runSeedsOn(pool.New(1), smokeConfig(0), seeds)
	if err != nil {
		t.Fatal(err)
	}
	_, wide, err := runSeedsOn(pool.New(8), smokeConfig(0), seeds)
	if err != nil {
		t.Fatal(err)
	}
	if serial.TotalMbps != wide.TotalMbps || serial.Events != wide.Events {
		t.Fatalf("pool size changed results: %v/%d vs %v/%d",
			serial.TotalMbps, serial.Events, wide.TotalMbps, wide.Events)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	top, path := topology.Line(2)
	base := Config{
		Positions: top.Positions,
		Scheme:    DCF,
		Flows:     []FlowSpec{{ID: 1, Path: path, Kind: FTP}},
		Duration:  sim.Second,
	}

	bad := base
	bad.Positions = nil
	if _, err := Run(bad); err == nil {
		t.Error("no positions must error")
	}

	bad = base
	bad.Flows = nil
	if _, err := Run(bad); err == nil {
		t.Error("no flows must error")
	}

	bad = base
	bad.Flows = []FlowSpec{{ID: 1, Path: path, Kind: FTP}, {ID: 1, Path: path, Kind: FTP}}
	if _, err := Run(bad); err == nil {
		t.Error("duplicate flow ids must error")
	}

	bad = base
	bad.Flows = []FlowSpec{{ID: 1, Path: routing.Path{0, 9}, Kind: FTP}}
	if _, err := Run(bad); err == nil {
		t.Error("out-of-range station must error")
	}

	bad = base
	bad.Flows = []FlowSpec{{ID: 1, Path: path, Kind: 99}}
	if _, err := Run(bad); err == nil {
		t.Error("unknown traffic kind must error")
	}

	for _, kind := range []TrafficKind{Web, VoIPTraffic} {
		bad = base
		bad.Flows = []FlowSpec{{ID: -1, Path: path, Kind: kind}}
		if _, err := Run(bad); err == nil {
			t.Errorf("a negative ID on a flow of kind %d seeds a station's stream and must error", kind)
		}
	}

	// Validate itself refuses what no run could execute, so a run never
	// meets an unknown kind.
	for _, scheme := range []SchemeKind{0, 99} {
		bad = base
		bad.Scheme = scheme
		if err := Validate(&bad); err == nil || !strings.Contains(err.Error(), "unknown scheme") {
			t.Errorf("Validate of scheme %d = %v, want an unknown-scheme error", scheme, err)
		}
	}
	for _, kind := range []TrafficKind{0, 99} {
		bad = base
		bad.Flows = []FlowSpec{{ID: 1, Path: path, Kind: kind}}
		if err := Validate(&bad); err == nil || !strings.Contains(err.Error(), "unknown traffic kind") {
			t.Errorf("Validate of traffic kind %d = %v, want an unknown-traffic-kind error", kind, err)
		}
	}
}

// TestRNGStreamsAreDisjoint: no station's backoff stream is a flow's
// traffic stream or the shadowing stream, in a world beyond 9,900 stations
// too, where flow streams counted from 10000 would meet the stations'.
func TestRNGStreamsAreDisjoint(t *testing.T) {
	const n = 20000
	owner := map[uint64]string{1: "shadowing"}
	claim := func(stream uint64, who string) {
		if prev, ok := owner[stream]; ok {
			t.Fatalf("stream %d is both %s's and %s's", stream, prev, who)
		}
		owner[stream] = who
	}
	for i := range n {
		claim(stationStream(i), fmt.Sprintf("station %d", i))
	}
	for id := range 65 {
		claim(flowStream(n, id), fmt.Sprintf("flow %d", id))
	}
	// A world of at most 9,900 stations keeps the streams it always had.
	if got := flowStream(9900, 3); got != 10003 {
		t.Fatalf("flow 3's stream among 9,900 stations is %d, want 10003", got)
	}
}

// TestBadPositionsAreErrors: a coordinate that is not finite, or a layout
// so wide that a propagation delay across it would overflow the link plan's
// int32 nanoseconds, is the *ConfigError on the station's element,
// Positions[i], returned by Run, BuildWorld and LinkTable before anything is
// built from it.
func TestBadPositionsAreErrors(t *testing.T) {
	top, path := topology.Line(2)
	for _, tc := range []struct {
		name    string
		station int
		pos     radio.Pos
	}{
		{"NaN", 1, radio.Pos{X: math.NaN(), Y: 0}},
		{"+Inf", 2, radio.Pos{X: 0, Y: math.Inf(1)}},
		{"span", 2, radio.Pos{X: 7e8, Y: 0}},
	} {
		positions := slices.Clone(top.Positions)
		positions[tc.station] = tc.pos
		cfg := Config{
			Positions: positions,
			Scheme:    Ripple,
			Flows:     []FlowSpec{{ID: 1, Path: path, Kind: FTP}},
			Duration:  sim.Second,
		}
		want := fmt.Sprintf("Positions[%d]", tc.station)
		_, run := Run(cfg)
		_, build := BuildWorld(cfg)
		_, table := LinkTable(radio.DefaultConfig(), positions)
		for gate, err := range map[string]error{"Run": run, "BuildWorld": build, "LinkTable": table} {
			if ce, ok := err.(*ConfigError); !ok || ce.Field != want {
				t.Errorf("%s: %s returned %v, want the ConfigError on %s", tc.name, gate, err, want)
			}
		}
	}
}

func TestSchemeKindString(t *testing.T) {
	names := map[SchemeKind]string{
		DCF: "DCF", AFR: "AFR", PreExOR: "preExOR",
		MCExOR: "MCExOR", Ripple: "RIPPLE", RippleNoAgg: "RIPPLE-noagg",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}
