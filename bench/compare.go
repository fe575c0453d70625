package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs: which way
// each end-to-end metric is better and by how much it may worsen.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadBenchmarkSpec() (*benchmarkSpec, error) {
	paths := []string{"BENCHMARK.json", "../BENCHMARK.json"} // repo root, or this directory
	if *benchmarkFlag != "" {
		paths = []string{*benchmarkFlag}
	}
	var err error
	for _, p := range paths {
		var data []byte
		if data, err = os.ReadFile(p); err == nil {
			spec := new(benchmarkSpec)
			return spec, json.Unmarshal(data, spec)
		}
	}
	return nil, err
}

func loadResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rf := new(resultFile)
	if err := json.Unmarshal(data, rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// compareMain judges result file B against A, metric by metric and
// workload by workload, by BENCHMARK.json's bounds. A metric that worsened
// by more than its bound is "regressed" — unless the hosts' own yardstick
// (host.calib_spread) moved by more than that bound during either set of
// runs, in which case the disagreement may be the host's and the row is
// "unresolved". Outputs must agree exactly: a differing result_digest or
// count metric, or a higher fail_ratio, is a regression whatever the
// timings say. Exit status 1 on any regression.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
		return 2
	}
	spec, err := loadBenchmarkSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := loadResult(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadResult(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	ha, hb := a.Header, b.Header
	fmt.Printf("A: %s  commit %s  %s  nproc=%d GOMAXPROCS=%d seed=%d calib_spread=%.4f\n",
		args[0], ha.Commit, ha.CPUModel, ha.NProc, ha.GOMAXPROCS, ha.Seed, a.CalibSpread)
	fmt.Printf("B: %s  commit %s  %s  nproc=%d GOMAXPROCS=%d seed=%d calib_spread=%.4f\n",
		args[1], hb.Commit, hb.CPUModel, hb.NProc, hb.GOMAXPROCS, hb.Seed, b.CalibSpread)
	if ha.CPUModel != hb.CPUModel || ha.NProc != hb.NProc || ha.Seconds != hb.Seconds || ha.Quick != hb.Quick {
		fmt.Println("warning: the two files were not made on like hosts with like settings; host-time rows mean little")
	}
	spread := max(a.CalibSpread, b.CalibSpread)

	var names []string
	for n := range a.Workloads {
		if b.Workloads[n] != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	regressed := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tB/A\tbound\tverdict")
	for _, n := range names {
		wa, wb := a.Workloads[n], b.Workloads[n]
		for _, m := range spec.EndToEnd {
			va, vb := wa.EndToEnd[m.Name].Value, wb.EndToEnd[m.Name].Value
			worse := vb/va - 1
			if m.Better == "higher" {
				worse = 1 - vb/va
			}
			verdict := "ok"
			switch {
			case worse <= m.Bound:
			case spread > m.Bound:
				verdict = "unresolved"
			default:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.4f\t%g\t%s\n", n, m.Name, va, vb, vb/va, m.Bound, verdict)
		}
		exact := func(what string, same bool) {
			verdict := "ok"
			if !same {
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s\t\t\t\texact\t%s\n", n, what, verdict)
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\t%g\t%g\t\t0\t", n, wa.FailRatio, wb.FailRatio)
		if wb.FailRatio > wa.FailRatio {
			regressed++
			fmt.Fprintln(tw, "regressed")
		} else {
			fmt.Fprintln(tw, "ok")
		}
		if ha.Seed == hb.Seed {
			exact("result_digest", wa.Digest != "" && wa.Digest == wb.Digest)
			counts := true
			for name, ma := range wa.PerLayer {
				if mb, ok := wb.PerLayer[name]; ok && ma.Unit == "count" && ma.Value != mb.Value {
					counts = false
					fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t\texact\tdiffers\n", n, name, ma.Value, mb.Value)
				}
			}
			exact("per-layer counts", counts)
		}
	}
	tw.Flush()
	if regressed > 0 {
		fmt.Printf("%d regressed\n", regressed)
		return 1
	}
	fmt.Println("no regression")
	return 0
}
