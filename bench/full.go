package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// metricStat is one metric of a full run: the estimate over the rounds
// and the per-round values it was made from.
type metricStat struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds,omitempty"`
}

// workloadResult is one workload's section of a result file.
type workloadResult struct {
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	FailRatio float64               `json:"fail_ratio"`
	Digest    string                `json:"result_digest"`
	Ops       int                   `json:"ops"` // per-op samples behind the percentiles
	EndToEnd  map[string]metricStat `json:"end_to_end"`
	PerLayer  map[string]metricStat `json:"per_layer,omitempty"`
	// TraceOverheadRatio is the traced pass's op_wall_ms_p50 over the
	// untraced one's: what the benchmark's own spans cost.
	TraceOverheadRatio float64    `json:"trace_overhead_ratio,omitempty"`
	Spans              []spanStat `json:"spans,omitempty"`
}

// resultFile is what a full run writes and -compare reads.
type resultFile struct {
	Header    header                     `json:"header"`
	Rounds    int                        `json:"rounds"`
	Workloads map[string]*workloadResult `json:"workloads"`
	// CalibNs holds every run's host.calib_ns; CalibSpread is their range
	// over their median — how much the host itself moved during the runs.
	CalibNs     []float64 `json:"host_calib_ns"`
	CalibSpread float64   `json:"host_calib_spread"`
}

// fullMain runs every selected workload: rounds interleaved across
// workloads (w1 r1, w2 r1, ... w1 r2, ...) so that a noisy minute on a
// shared host is spread over all of them, each (workload, round) a fresh
// child process, then one traced pass. End-to-end numbers come from the
// untraced rounds only.
func fullMain() int {
	names := workloadNames()
	if *workloadsFlag != "" {
		names = strings.Split(*workloadsFlag, ",")
		for _, n := range names {
			if _, err := newWorkload(n, runOpts{}); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
		}
	}
	seconds := *secondsFlag
	if seconds <= 0 {
		seconds = 4
	}
	outDir := *outFlag
	if outDir == "" {
		outDir = filepath.Join(".bench_build", "results")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	scratch, cleanup, err := scratchDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer cleanup()
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	child := func(name string, trace int) (*report, error) {
		path := filepath.Join(scratch, "report.json")
		args := []string{"-workload", name, "-seed", strconv.FormatUint(*seedFlag, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(trace), "-report", path, "-out", outDir}
		if *quickFlag {
			args = append(args, "-quick")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr // the child's stdout is its result line; the report file says more
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		rep := new(report)
		return rep, json.Unmarshal(data, rep)
	}

	out := &resultFile{Rounds: *roundsFlag, Workloads: map[string]*workloadResult{}}
	byWorkload := map[string][]*report{}
	for r := 0; r < *roundsFlag; r++ {
		for _, n := range names {
			fmt.Fprintf(os.Stderr, "round %d/%d %s\n", r+1, *roundsFlag, n)
			rep, err := child(n, 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			byWorkload[n] = append(byWorkload[n], rep)
			out.CalibNs = append(out.CalibNs, rep.CalibNs)
			out.Header = rep.Header
		}
	}
	code := 0
	for _, n := range names {
		wr := aggregate(byWorkload[n])
		out.Workloads[n] = wr
		if wr.Failed > 0 || wr.Digest == "" {
			code = 1
		}
	}
	if *traceFlag != 0 {
		for _, n := range names {
			fmt.Fprintf(os.Stderr, "traced pass %s\n", n)
			rep, err := child(n, 1)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			wr := out.Workloads[n]
			wr.Attempted += rep.Attempted
			wr.Failed += rep.Failed
			wr.FailRatio = float64(wr.Failed) / float64(wr.Attempted)
			if rep.Failed > 0 || rep.Digest != wr.Digest {
				code = 1
			}
			wr.PerLayer = map[string]metricStat{}
			for name, m := range rep.Metrics {
				wr.PerLayer[name] = metricStat{Value: m.Value, Unit: m.Unit}
			}
			wr.TraceOverheadRatio = ratio(rep.Metrics["trace.op_wall_ms_p50"].Value, wr.EndToEnd["op_wall_ms_p50"].Value)
			wr.Spans = rep.Spans
			out.CalibNs = append(out.CalibNs, rep.CalibNs)
		}
	}
	sorted := append([]float64(nil), out.CalibNs...)
	sort.Float64s(sorted)
	out.CalibSpread = ratio(sorted[len(sorted)-1]-sorted[0], quantile(sorted, 0.5))

	printResult(names, out)
	data, _ := json.MarshalIndent(out, "", " ")
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("\nresult file: %s (spans beside it)\n", path)
	if code != 0 {
		fmt.Println("FAILED: an op failed or a result_digest changed between runs of one seed")
	}
	return code
}

// aggregate folds one workload's rounds: rate metrics and set-up are the
// median over rounds of the per-round value; latency percentiles pool the
// per-op samples of all rounds.
func aggregate(rounds []*report) *workloadResult {
	wr := &workloadResult{EndToEnd: map[string]metricStat{}, Digest: rounds[0].Digest}
	var pooled []float64
	for _, r := range rounds {
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		pooled = append(pooled, r.OpWallMs...)
		if r.Digest != wr.Digest {
			wr.Digest = "" // same seed, same code: must not happen
		}
	}
	wr.FailRatio = float64(wr.Failed) / float64(wr.Attempted)
	wr.Ops = len(pooled)
	sort.Float64s(pooled)
	for _, d := range append(append([]metricDef(nil), endToEnd...), fullRunOnly...) {
		st := metricStat{Unit: d.unit}
		for _, r := range rounds {
			st.Rounds = append(st.Rounds, r.Metrics[d.name].Value)
		}
		if d.name == "op_wall_ms_p50" {
			st.Value = quantile(pooled, 0.5)
		} else {
			st.Value = median(st.Rounds)
		}
		wr.EndToEnd[d.name] = st
	}
	if len(pooled) >= 100 {
		wr.EndToEnd[opP90] = metricStat{Value: quantile(pooled, 0.9), Unit: "ms"}
	}
	return wr
}

// opP90 is reported by full runs only, and only where the pooled sample
// leaves at least ten ops beyond it (100 ops: ftp_chain, voip_fig1 and
// web_fig1 at the default sizes). On a dozen city ops or on a suite's ten
// different experiments it would be the slowest op but one — a maximum,
// not a percentile — so it is not among BENCHMARK.json's metrics, which
// every workload must report and hold steady.
const opP90 = "op_wall_ms_p90"

// printResult prints every metric by name with its unit: one end-to-end
// table and one per-layer table, a column per workload.
func printResult(names []string, out *resultFile) {
	h := out.Header
	fmt.Printf("seed=%d rounds=%d seconds/round=%g quick=%v | nproc=%d GOMAXPROCS=%d width=%d %s | %s | commit %s | scratch on %s\n",
		h.Seed, out.Rounds, h.Seconds, h.Quick, h.NProc, h.GOMAXPROCS, h.Width, h.GoVersion, h.CPUModel, h.Commit, h.ScratchFS)
	fmt.Printf("host.calib_spread=%.4f over %d runs (host time everywhere unless a name says sim)\n\n", out.CalibSpread, len(out.CalibNs))
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	row := func(label, unit string, cell func(*workloadResult) string) {
		fmt.Fprintf(tw, "%s\t%s", label, unit)
		for _, n := range names {
			fmt.Fprintf(tw, "\t%s", cell(out.Workloads[n]))
		}
		fmt.Fprintln(tw)
	}
	row("END TO END", "unit", func(*workloadResult) string { return "" })
	fmt.Fprintf(tw, "\t")
	for _, n := range names {
		fmt.Fprintf(tw, "\t%s", n)
	}
	fmt.Fprintln(tw)
	for _, d := range append(append([]metricDef(nil), endToEnd...), fullRunOnly...) {
		row(d.name, d.unit, func(w *workloadResult) string { return fmt.Sprintf("%.6g", w.EndToEnd[d.name].Value) })
	}
	row(opP90, "ms", func(w *workloadResult) string {
		if st, ok := w.EndToEnd[opP90]; ok {
			return fmt.Sprintf("%.6g", st.Value)
		}
		return "-"
	})
	row("op samples", "count", func(w *workloadResult) string { return strconv.Itoa(w.Ops) })
	row("fail_ratio", "ratio", func(w *workloadResult) string {
		return fmt.Sprintf("%g (%d/%d)", w.FailRatio, w.Failed, w.Attempted)
	})
	row("result_digest", "", func(w *workloadResult) string {
		if w.Digest == "" {
			return "DIFFERS"
		}
		return w.Digest[:12]
	})
	if out.Workloads[names[0]].PerLayer != nil {
		row("trace_overhead_ratio", "ratio", func(w *workloadResult) string { return fmt.Sprintf("%.4f", w.TraceOverheadRatio) })
		fmt.Fprintln(tw)
		row("PER LAYER (traced pass)", "unit", func(*workloadResult) string { return "" })
		for _, d := range perLayer {
			row(d.name, d.unit, func(w *workloadResult) string { return fmt.Sprintf("%.6g", w.PerLayer[d.name].Value) })
		}
	}
	tw.Flush()
	for _, n := range names {
		if spans := out.Workloads[n].Spans; len(spans) > 0 {
			fmt.Printf("\nSPANS %s\n", n)
			fmt.Fprintln(tw, "  span\tcount\ttotal ms\tself ms")
			for _, s := range spans {
				if !strings.HasPrefix(s.Name, "probe.") {
					fmt.Fprintf(tw, "  %s\t%d\t%.3f\t%.3f\n", s.Name, s.Count, s.TotalMs, s.SelfMs)
				}
			}
			tw.Flush()
		}
	}
}
