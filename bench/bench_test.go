package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"ripple/internal/routing"
)

// TestMain lets the test binary stand in for the bench binary when
// suite_dist re-executes it as a worker.
func TestMain(m *testing.M) {
	flag.Parse()
	if *workerFlag {
		os.Exit(workerMain(*seedFlag, *quickFlag))
	}
	os.Exit(m.Run())
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type fullSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(t *testing.T) fullSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec fullSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestCatalogueMatchesBenchmarkJSON holds the program's metric and
// workload lists equal to BENCHMARK.json's, and BENCHMARK.json inside the
// limits its contract sets.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s: bad or repeated name/unit %q (%q)", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: %s has direction %q", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s: %s has a bad or misplaced bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 {
		t.Error("too many metrics")
	}
	names := workloadNames()
	if len(spec.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(names))
	}
	for i, w := range spec.Workloads {
		if w.Name != names[i] || !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), the program has %q", i, w.Name, len(w.Why), names[i])
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", spec.RunSeconds, spec.Paths)
	}
}

func quickOpts(t *testing.T, trace bool) runOpts {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Skip("cannot re-execute the test binary:", err)
	}
	return runOpts{seed: 7, seconds: 0.05, trace: trace, quick: true, scratch: t.TempDir(), exe: exe}
}

// checkSpanTree requires one root per workload, children inside their
// parents, and (through the roll-up) no negative self time.
func checkSpanTree(t *testing.T, path string, stats []spanStat) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	roots := 0
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %d %s never closed", s.ID, s.Name)
		}
		if s.Parent == 0 {
			roots++
			if s.Name != "workload" {
				t.Errorf("root span is %q", s.Name)
			}
			continue
		}
		p := spans[s.Parent-1]
		if s.Parent >= s.ID || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Errorf("span %d %s [%d,%d] lies outside its parent %s [%d,%d]", s.ID, s.Name, s.StartNs, s.EndNs, p.Name, p.StartNs, p.EndNs)
		}
	}
	if roots != 1 {
		t.Errorf("%d root spans", roots)
	}
	for _, st := range stats {
		if st.SelfMs < 0 || st.Count < 1 {
			t.Errorf("span %s: self %g ms over %d spans", st.Name, st.SelfMs, st.Count)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload end to end on the
// self-test sizes, untraced and traced: every metric BENCHMARK.json names
// comes out with a unit and a finite value, no op fails, both runs agree
// on result_digest, and the traced run's span tree is well formed.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			if name == suiteDist && testing.Short() {
				t.Skip("spawns worker processes")
			}
			var digest string
			for _, trace := range []bool{false, true} {
				o := quickOpts(t, trace)
				w, err := newWorkload(name, o)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := measure(w, o)
				if err != nil {
					t.Fatal(err)
				}
				defs := append(append([]metricDef(nil), endToEnd...), fullRunOnly...)
				if trace {
					defs = perLayer
				}
				if len(rep.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics, want %d", trace, len(rep.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := rep.Metrics[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("trace=%v: metric %s = %+v (present %v)", trace, d.name, m, ok)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g, must never be 0", d.name, m.Value)
					}
				}
				if rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("trace=%v: %d of %d ops failed", trace, rep.Failed, rep.Attempted)
				}
				if digest != "" && rep.Digest != digest {
					t.Errorf("result_digest differs between two runs of one seed")
				}
				digest = rep.Digest
				if trace {
					checkSpanTree(t, filepath.Join(o.scratch, "spans-"+name+".json"), rep.Spans)
					if rep.Metrics["sim.events_per_op"].Value <= 0 {
						t.Error("traced run counted no events")
					}
				}
			}
		})
	}
}

// TestBrokenOpIsCounted proves the checker can fail: a flow whose path
// leaves the topology makes the op fail, and the failure is counted
// rather than crashing the run.
func TestBrokenOpIsCounted(t *testing.T) {
	w := &scenarioWL{spec: scenarios[0], o: quickOpts(t, false)}
	if err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	if p := w.pass(0, nil, nil); p.failed != 0 || p.attempted != 1 {
		t.Fatalf("healthy op: %d of %d failed", p.failed, p.attempted)
	}
	w.cfg.Flows[0].Path = routing.Path{0, 99}
	if p := w.pass(1, nil, nil); p.failed != 1 || p.attempted != 1 || p.events != 0 {
		t.Fatalf("broken op: %d of %d failed, %d events", p.failed, p.attempted, p.events)
	}
	if a, f := w.replay(false); a != 1 || f != 1 {
		t.Fatalf("replay of a broken op: %d of %d failed", f, a)
	}
}

// TestCompare drives -compare over synthetic result files: equal files
// pass, a throughput drop past its bound regresses, the same drop on a
// host whose yardstick moved is unresolved, and a changed digest
// regresses whatever the timings say.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, eventsPerS, calibSpread float64, digest string) string {
		e2e := map[string]metricStat{}
		for _, d := range endToEnd {
			e2e[d.name] = metricStat{Value: 100, Unit: d.unit}
		}
		e2e["events_per_s"] = metricStat{Value: eventsPerS, Unit: "1/s"}
		rf := resultFile{Rounds: 1, CalibSpread: calibSpread, Workloads: map[string]*workloadResult{
			"ftp_chain": {Attempted: 10, Digest: digest, EndToEnd: e2e,
				PerLayer: map[string]metricStat{"sim.events_per_op": {Value: 5, Unit: "count"}}},
		}}
		data, _ := json.Marshal(rf)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1000, 0.01, "d1")
	for _, c := range []struct {
		name string
		path string
		want int
	}{
		{"equal", write("b.json", 1000, 0.01, "d1"), 0},
		{"faster", write("c.json", 2000, 0.01, "d1"), 0},
		{"slower", write("d.json", 500, 0.01, "d1"), 1},
		{"slower on a moving host", write("e.json", 500, 0.9, "d1"), 0},
		{"digest changed", write("f.json", 1000, 0.01, "d2"), 1},
	} {
		if got := compareMain([]string{base, c.path}); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quantile(s, 0.5); got != 5.5 {
		t.Errorf("median %g", got)
	}
	if got := quantile(s, 0.9); got != 9 {
		t.Errorf("p90 %g", got)
	}
	if got := quantile(s[:1], 0.9); got != 1 {
		t.Errorf("p90 of one %g", got)
	}
}
