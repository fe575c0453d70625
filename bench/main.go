// Command bench is the repository's one benchmark: six named workloads,
// seven bounded end-to-end metrics, per-layer probes and a traced run. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	bench -workload W -seed S -seconds N -trace 0|1   one run, one JSON result line
//	bench [-workloads a,b] [-rounds R] [-out DIR]     every workload, R rounds, then a traced pass
//	bench -compare A.json B.json                      judge two result files by BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
)

var (
	workloadFlag  = flag.String("workload", "", "run this one workload and print one JSON result line")
	seedFlag      = flag.Uint64("seed", 1, "derives every run seed, the city layout seed and the fault seed")
	secondsFlag   = flag.Float64("seconds", 0, "host seconds of timed passes per run (0 = 10 for -workload, 4 per round otherwise)")
	traceFlag     = flag.Int("trace", -1, "with -workload: 1 = traced run reporting per-layer metrics, 0 = end-to-end run; otherwise 0 skips the traced pass")
	quickFlag     = flag.Bool("quick", false, "self-test sizes: tiny topologies and simulated durations")
	workloadsFlag = flag.String("workloads", "", "comma-separated workloads of a full run (default: all)")
	roundsFlag    = flag.Int("rounds", 3, "rounds of a full run, interleaved across workloads")
	outFlag       = flag.String("out", "", "directory for result.json and the span files (default .bench_build/results)")
	compareFlag   = flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	benchmarkFlag = flag.String("benchmark", "", "BENCHMARK.json to take bounds from (default: ./BENCHMARK.json or ../BENCHMARK.json)")
	reportFlag    = flag.String("report", "", "with -workload: also write the run's full report here")
	workerFlag    = flag.Bool("worker", false, "internal: serve suite_dist cells over stdin/stdout")
)

func main() {
	flag.Parse()
	os.Exit(run())
}

func run() int {
	switch {
	case *workerFlag:
		return workerMain(*seedFlag, *quickFlag)
	case *compareFlag:
		return compareMain(flag.Args())
	case *workloadFlag != "":
		return singleMain()
	default:
		return fullMain()
	}
}

// newWorkload resolves a workload name.
func newWorkload(name string, o runOpts) (workload, error) {
	for _, s := range scenarios {
		if s.name == name {
			return &scenarioWL{spec: s, o: o}, nil
		}
	}
	switch name {
	case suitePool:
		return &suiteWL{o: o}, nil
	case suiteDist:
		return &suiteWL{o: o, viaDist: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}

// scratchDir makes this run's private directory. Everything a run writes
// — checkpoint, WAL, span file — lives under it, inside the working tree's
// ignored build directory, and goes when the run ends.
func scratchDir() (string, func(), error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return "", nil, err
	}
	// An interrupted run removes its directory too; its workers, if any,
	// exit when their stdin closes with this process.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(dir)
		os.Exit(1)
	}()
	return dir, func() { os.RemoveAll(dir) }, nil
}

// singleMain is one run of one workload: the contract the driver calls.
// Stdout carries the result line and nothing else.
func singleMain() int {
	runtime.GOMAXPROCS(width)
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
	o := runOpts{seed: *seedFlag, seconds: *secondsFlag, trace: *traceFlag == 1,
		quick: *quickFlag, scratch: scratch, exe: exe}
	if o.seconds <= 0 {
		o.seconds = 10
	}
	w, err := newWorkload(*workloadFlag, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	rep, err := measure(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *reportFlag != "" {
		data, _ := json.Marshal(rep)
		if err := os.WriteFile(*reportFlag, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	} else {
		printReport(os.Stderr, rep)
	}
	if o.trace && *outFlag != "" {
		spans := "spans-" + w.name() + ".json"
		if err := copyFile(filepath.Join(scratch, spans), filepath.Join(*outFlag, spans)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	// The result line carries exactly the metrics BENCHMARK.json names.
	listed := perLayer
	if !o.trace {
		listed = endToEnd
	}
	metrics := map[string]metric{}
	for _, d := range listed {
		metrics[d.name] = rep.Metrics[d.name]
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, metrics})
	fmt.Println(string(line))
	return 0
}

func copyFile(from, to string) error {
	data, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(to), 0o755); err != nil {
		return err
	}
	return os.WriteFile(to, data, 0o644)
}

// printReport is the human view of one run: the header that says what
// ran where, every metric by name with its unit, and the span roll-up.
func printReport(f *os.File, rep *report) {
	h := rep.Header
	fmt.Fprintf(f, "%s seed=%d seconds=%g trace=%v quick=%v | nproc=%d GOMAXPROCS=%d width=%d %s | %s | commit %s | scratch on %s\n",
		rep.Workload, h.Seed, h.Seconds, rep.Trace, h.Quick, h.NProc, h.GOMAXPROCS, h.Width,
		h.GoVersion, h.CPUModel, h.Commit, h.ScratchFS)
	fmt.Fprintf(f, "passes=%d ops=%d attempted=%d failed=%d fail_ratio=%g steal_share=%.4f result_digest=%s\n",
		rep.Passes, len(rep.OpWallMs), rep.Attempted, rep.Failed,
		float64(rep.Failed)/float64(rep.Attempted), rep.StealShare, rep.Digest)
	tw := tabwriter.NewWriter(f, 0, 0, 2, ' ', 0)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	tw.Flush()
	if len(rep.Spans) > 0 {
		fmt.Fprintln(tw, "  span\tcount\ttotal ms\tself ms")
		for _, s := range rep.Spans {
			fmt.Fprintf(tw, "  %s\t%d\t%.3f\t%.3f\n", s.Name, s.Count, s.TotalMs, s.SelfMs)
		}
		tw.Flush()
	}
}
