// Command layers charges each CPU sample of a profile to one layer of the
// simulator and prints the layer table: each layer's time and its share of
// the profile's total. It reads the text that `go tool pprof -traces`
// prints; scripts/layers.sh runs an in-tree benchmark under -cpuprofile and
// feeds it here:
//
//	go run ./scripts/layers TRACES
//
// The rule: a sample goes to the innermost frame of a ripple/internal/<pkg>
// package on its stack, and the layer is <pkg>. Frames of stats, pkt and
// sim.RNG are helpers the layers call, so they are charged to their caller:
// the next such frame out. A sample with no such frame is charged to gc if
// its stack holds a garbage-collector frame and to runtime otherwise, so
// the rows sum to the total. Layers print by time, then runtime and gc.
//
// The command fails unless the shares sum to 1 within 1e-9, that is, unless
// every sample of the total that pprof states was read and charged once.
package main

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"time"
)

// sample is one stack of a -traces listing and the time charged to it.
type sample struct {
	value  time.Duration
	frames []string // innermost first
}

// parse reads a `go tool pprof -traces` listing of a CPU profile: a header
// whose "Total samples = D" line gives the total, then one block per stack,
// each opened by a dashed separator, its first line the stack's time and
// innermost frame, and each further line one caller.
func parse(r io.Reader) (total time.Duration, samples []sample, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	inBlock := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "-----------+"):
			inBlock = true
			samples = append(samples, sample{})
		case !inBlock:
			if _, after, ok := strings.Cut(line, "Total samples = "); ok {
				d, _, _ := strings.Cut(after, " ")
				if total, err = time.ParseDuration(d); err != nil {
					return 0, nil, fmt.Errorf("total %q: %w", d, err)
				}
			}
		case strings.TrimSpace(line) == "":
		default:
			s := &samples[len(samples)-1]
			f := strings.Fields(line)
			if len(s.frames) == 0 {
				if s.value, err = time.ParseDuration(f[0]); err != nil || len(f) < 2 {
					return 0, nil, fmt.Errorf("a stack's first line %q: want its time and a frame", line)
				}
				f = f[1:]
			}
			s.frames = append(s.frames, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return 0, nil, err
	}
	if total <= 0 {
		return 0, nil, fmt.Errorf("no \"Total samples\" line: not a -traces listing of a CPU profile")
	}
	// A listing ends with a separator that opens no stack.
	samples = slices.DeleteFunc(samples, func(s sample) bool { return len(s.frames) == 0 })
	return total, samples, nil
}

// layerOf applies the rule to one stack, innermost frame first.
func layerOf(frames []string) string {
	helper := ""
	for _, f := range frames {
		rest, ok := strings.CutPrefix(f, "ripple/internal/")
		if !ok {
			continue
		}
		pkg, _, _ := strings.Cut(rest, ".")
		if pkg == "stats" || pkg == "pkt" || strings.HasPrefix(rest, "sim.(*RNG).") {
			if helper == "" {
				helper = pkg
			}
			continue
		}
		return pkg
	}
	if helper != "" {
		return helper // a helper no layer called: charged to itself
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.markroot") ||
			f == "runtime.bgsweep" || f == "runtime.bgscavenge" {
			return "gc"
		}
	}
	return "runtime"
}

// row is one line of the layer table.
type row struct {
	layer string
	value time.Duration
	share float64
}

// table charges every sample to its layer and returns the rows, layers by
// time (then name), then runtime and gc, each with its share of total.
func table(total time.Duration, samples []sample) []row {
	by := map[string]time.Duration{"runtime": 0, "gc": 0}
	for _, s := range samples {
		by[layerOf(s.frames)] += s.value
	}
	var rows []row
	for layer, v := range by {
		rows = append(rows, row{layer, v, float64(v) / float64(total)})
	}
	rank := func(layer string) int {
		switch layer {
		case "runtime":
			return 1
		case "gc":
			return 2
		}
		return 0
	}
	slices.SortFunc(rows, func(a, b row) int {
		return cmp.Or(cmp.Compare(rank(a.layer), rank(b.layer)), cmp.Compare(b.value, a.value), cmp.Compare(a.layer, b.layer))
	})
	return rows
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: go run ./scripts/layers TRACES")
		os.Exit(2)
	}
	f, err := os.Open(os.Args[1])
	exitOn(err)
	defer f.Close()
	total, samples, err := parse(f)
	exitOn(err)
	sum := 0.0
	fmt.Printf("%-10s %10s %9s\n", "layer", "seconds", "share")
	for _, r := range table(total, samples) {
		fmt.Printf("%-10s %10.3f %9.4f\n", r.layer, r.value.Seconds(), r.share)
		sum += r.share
	}
	fmt.Printf("%-10s %10.3f %9.4f\n", "total", total.Seconds(), sum)
	if math.Abs(sum-1) > 1e-9 {
		exitOn(fmt.Errorf("the shares sum to %.12f, not 1: the listing's stacks do not add up to its total", sum))
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}
