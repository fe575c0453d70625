package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"ripple/internal/network"
)

// runOpts is one run's settings, identical for every workload.
type runOpts struct {
	seed    uint64
	seconds float64 // host seconds of timed passes
	trace   bool    // traced run: spans, probes and per-layer metrics
	quick   bool    // self-test sizes
	scratch string  // this run's private directory (WAL, checkpoint, spans)
	exe     string  // the binary suite_dist re-executes as its workers
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric of BENCHMARK.json; bench_test.go holds the two
// lists equal.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"events_per_s", "1/s"},
	{"sim_s_per_wall_s", "x"},
	{"cpu_s_per_sim_s", "s/s"},
	{"op_wall_ms_p50", "ms"},
	{"allocs_per_event", "1/event"},
	{"peak_rss_mb", "MB"},
}

// fullRunOnly are end-to-end metrics a run measures and a full run prints
// but BENCHMARK.json does not list, because its metrics must hold steady
// on every workload: suite_dist's coordinator re-marshals its whole
// checkpoint through pooled buffers the collector empties at its own
// times, which moves its bytes per event ±15 % from run to run.
var fullRunOnly = []metricDef{
	{"alloc_bytes_per_event", "B/event"},
}

// passOut is what one timed pass reports: one op on a single-scenario
// workload, one regeneration of every experiment on a suite.
type passOut struct {
	host      time.Duration // host time of the pass (see stamp)
	lanes     int           // ops the pass may run side by side
	opMs      []float64     // host ms of each op of the pass
	events    uint64
	simS      float64 // simulated seconds completed
	runs      int     // seed-runs completed
	attempted int
	failed    int
	output    []byte // canonical bytes of the pass's outputs
}

// workload is what measure drives. Both implementations receive only
// generated network.Config / experiments.Options values.
type workload interface {
	name() string
	// digestPasses is how many leading passes always run: their outputs
	// make result_digest and the per-layer counts.
	digestPasses() int
	// setup generates the inputs and builds whatever the passes share; it
	// may be called again after close, each call a complete set-up.
	setup(tr *tracer) error
	close()
	warmup() error
	// pass runs timed pass i; counts, when non-nil, receives every result.
	pass(i int, tr *tracer, counts *tally) passOut
	// replay repeats pass 0's inputs and counts the ops whose outputs
	// disagree with the first time. A thorough replay repeats all of pass
	// 0; otherwise as little as the workload's check allows.
	replay(thorough bool) (attempted, failed int)
	// probeConfig is the scenario whose positions and flows the per-layer
	// probes take their inputs from.
	probeConfig() network.Config
	// layers adds the per-layer metrics only this workload can measure.
	layers(m map[string]float64)
}

// report is everything one run found; the contract's result line is a
// projection of it.
type report struct {
	Header    header            `json:"header"`
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Digest    string            `json:"result_digest"`
	Passes    int               `json:"passes"`
	Metrics   map[string]metric `json:"metrics"`
	OpWallMs  []float64         `json:"op_wall_ms"`
	CalibNs   float64           `json:"calib_ns"` // host.calib_ns, taken on every run
	// StealShare is host.steal_share: the share of the timed passes'
	// wall-clock time that was stolen and left out of every host time.
	StealShare float64    `json:"steal_share"`
	Spans      []spanStat `json:"spans,omitempty"`
}

// fail logs why an op failed; the count is what the result carries.
func fail(workload string, op int, err error) {
	fmt.Fprintf(os.Stderr, "bench: %s op %d failed: %v\n", workload, op, err)
}

// measure runs one workload once: repeated set-up (warm-up included),
// timed passes for the budget, the replay check and, traced, the probes.
func measure(w workload, o runOpts) (*report, error) {
	calib := calibNs()
	var tr *tracer
	if o.trace {
		tr = newTracer(w.name())
	}
	endRoot := tr.start("workload", -1)

	// A set-up is everything before the first timed op: generating the
	// inputs, building what the ops share, and one untimed warm-up op under
	// a seed no timed op uses — so work moved out of the timed ops shows
	// here whether it lands in the build or in a lazy first use. It is
	// timed in batches long enough to be adjusted for stolen time, for
	// 0.3 s and at least three batches; setup_s is the median of the batch
	// means. A traced run reports no setup_s, so it sets up once.
	prepare := func() error {
		if err := w.setup(tr); err != nil {
			return fmt.Errorf("%s: set-up: %w", w.name(), err)
		}
		defer tr.start("warmup", -1)()
		if err := w.warmup(); err != nil {
			return fmt.Errorf("%s: warm-up: %w", w.name(), err)
		}
		return nil
	}
	var setups []float64
	batch := 1
	for begin := time.Now(); ; w.close() {
		start := mark()
		for i := 0; i < batch; i++ {
			if i > 0 {
				w.close()
			}
			if err := prepare(); err != nil {
				w.close()
				return nil, err
			}
		}
		host, _ := start.host(1)
		if o.trace {
			break
		}
		if host < minAdjusted {
			batch *= 4
			continue
		}
		setups = append(setups, host.Seconds()/float64(batch))
		if len(setups) >= 3 && time.Since(begin) >= 300*time.Millisecond {
			break
		}
	}
	defer w.close()

	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= 3
	}
	rep := &report{Header: newHeader(o), Workload: w.name(), Trace: o.trace}
	var counts tally
	var passes []passOut
	var busyNs float64 // host time the digest passes kept their lanes busy
	var digestEvents uint64
	digest := sha256.New()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	childCPU0, _ := childStats()
	cpu0 := selfCPU() + childCPU0
	start := mark()
	for i := 0; i < w.digestPasses() || time.Since(start.at) < budget; i++ {
		var c *tally
		if o.trace && i < w.digestPasses() {
			c = &counts
		}
		out := w.pass(i, tr, c)
		if i < w.digestPasses() {
			digest.Write(out.output)
			busyNs += float64(out.host.Nanoseconds()) * float64(out.lanes)
			digestEvents += out.events
		}
		if i == w.digestPasses()-1 {
			// Allocation is counted over the digest passes: the same work
			// on every run of a seed, however many passes the budget buys.
			runtime.ReadMemStats(&ms1)
		}
		out.output = nil
		passes = append(passes, out)
	}
	childCPU1, childRSS := childStats()
	loopHost, stolen := start.host(passes[0].lanes)
	loopWall := time.Since(start.at)
	cpuS := selfCPU() + childCPU1 - cpu0 - stolen

	var simS float64
	for _, p := range passes {
		rep.Attempted += p.attempted
		rep.Failed += p.failed
		rep.OpWallMs = append(rep.OpWallMs, p.opMs...)
		simS += p.simS
	}
	end := tr.start("replay", -1)
	a, f := w.replay(o.trace)
	end()
	rep.Attempted += a
	rep.Failed += f
	rep.Passes = len(passes)
	rep.Digest = fmt.Sprintf("%x", digest.Sum(nil))

	sort.Float64s(rep.OpWallMs)
	vals := map[string]float64{}
	defs := append(append([]metricDef(nil), endToEnd...), fullRunOnly...)
	if o.trace {
		defs = perLayer
		layerCounts(vals, &counts)
		vals["trace.op_wall_ms_p50"] = quantile(rep.OpWallMs, 0.5)
		vals["campaign.runs_per_s"] = median(ratios(passes, func(p passOut) float64 { return float64(p.runs) }))
		if err := runProbes(vals, w.probeConfig(), &counts, busyNs, tr, o); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", w.name(), err)
		}
		w.layers(vals)
	} else {
		vals["setup_s"] = median(setups)
		vals["events_per_s"] = median(ratios(passes, func(p passOut) float64 { return float64(p.events) }))
		vals["sim_s_per_wall_s"] = median(ratios(passes, func(p passOut) float64 { return p.simS }))
		vals["cpu_s_per_sim_s"] = cpuS / simS
		vals["op_wall_ms_p50"] = quantile(rep.OpWallMs, 0.5)
		vals["allocs_per_event"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(digestEvents)
		vals["alloc_bytes_per_event"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(digestEvents)
		vals["peak_rss_mb"] = selfPeakRSSMB() + childRSS
	}
	endRoot()
	rep.CalibNs = (calib + calibNs()) / 2
	vals["host.calib_ns"] = rep.CalibNs
	rep.StealShare = 1 - loopHost.Seconds()/loopWall.Seconds()
	vals["host.steal_share"] = rep.StealShare

	rep.Metrics = map[string]metric{}
	for _, d := range defs {
		v := vals[d.name] // a per-layer metric this workload cannot measure reads 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is not finite", w.name(), d.name)
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if tr != nil {
		rep.Spans = tr.summary()
		if err := tr.write(o.scratch + "/spans-" + w.name() + ".json"); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// ratios is each pass's quantity per host second.
func ratios(passes []passOut, of func(passOut) float64) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = of(p) / p.host.Seconds()
	}
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile reads a sorted sample: the median interpolates the middle
// pair, any other q is the nearest rank (the smallest value with at least
// a share q of the sample at or below it).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q == 0.5 {
		return (sorted[(n-1)/2] + sorted[n/2]) / 2
	}
	return sorted[int(math.Ceil(q*float64(n)))-1]
}

// canonical is the byte form outputs are compared and digested in. Every
// field of a Result or Table is an integer or a float64, both of which Go
// JSON round-trips exactly; a NaN or infinity has no JSON form, so a
// non-finite field surfaces here as an error.
func canonical(v any) ([]byte, error) { return json.Marshal(v) }
