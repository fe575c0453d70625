// Command rippletrace analyses a JSONL medium trace produced by
// `ripplesim -trace file` (or the ripple.Scenario.TraceJSONL API): per-node
// airtime shares, frame-kind breakdowns, corruption hot-spots, and an
// optional per-mTXOP timeline.
//
//	ripplesim -topo fig1 -scheme ripple -dur 2 -trace run.jsonl
//	rippletrace -in run.jsonl
//	rippletrace -in run.jsonl -txop 0x300000001
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"ripple/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the program: it parses args, reads the trace from -in (or stdin)
// and returns the exit code (0 done, 1 unreadable or empty trace, 2 usage
// error).
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rippletrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in   = fs.String("in", "", "JSONL trace file (default stdin)")
		txop = fs.String("txop", "", "print the event timeline of one mTXOP (hex id)")
		top  = fs.Int("top", 10, "rows to show in rankings")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	r := stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		r = f
	}

	var events []trace.Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev trace.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			fmt.Fprintf(stderr, "skipping malformed line: %v\n", err)
			continue
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if len(events) == 0 {
		fmt.Fprintln(stderr, "no events")
		return 1
	}

	if *txop != "" {
		id, err := strconv.ParseUint(*txop, 0, 64)
		if err != nil {
			fmt.Fprintf(stderr, "bad txop id %q: %v\n", *txop, err)
			return 2
		}
		printTimeline(stdout, events, id)
		return 0
	}
	printSummary(stdout, events, *top)
	return 0
}

func printSummary(w io.Writer, events []trace.Event, top int) {
	span := events[len(events)-1].TimeNs - events[0].TimeNs
	airtime := map[int]int64{}
	kinds := map[string]int{}
	corruptAt := map[int]int{}
	tx := 0
	for _, ev := range events {
		switch ev.Kind {
		case "tx":
			tx++
			airtime[ev.Node] += ev.Frame.DurationNs
			kinds[ev.Frame.Kind]++
		case "corrupt":
			corruptAt[ev.Node]++
		}
	}
	fmt.Fprintf(w, "%d events over %.3f s; %d transmissions\n", len(events), float64(span)/1e9, tx)

	fmt.Fprintln(w, "\nairtime per node:")
	type row struct {
		node int
		ns   int64
	}
	// Descending count; ties in node order, so the ranking does not depend
	// on map iteration.
	byCount := func(a, b row) bool {
		if a.ns != b.ns {
			return a.ns > b.ns
		}
		return a.node < b.node
	}
	rows := make([]row, 0, len(airtime))
	for n, ns := range airtime {
		rows = append(rows, row{n, ns})
	}
	sort.Slice(rows, func(i, j int) bool { return byCount(rows[i], rows[j]) })
	for i, r := range rows {
		if i >= top {
			break
		}
		share := 0.0
		if span > 0 {
			share = 100 * float64(r.ns) / float64(span)
		}
		fmt.Fprintf(w, "  node %3d: %10.3f ms (%5.1f%%)\n", r.node, float64(r.ns)/1e6, share)
	}

	fmt.Fprintln(w, "\nframes by kind:")
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-5s %d\n", k, kinds[k])
	}

	if len(corruptAt) > 0 {
		fmt.Fprintln(w, "\ncorruptions per receiver:")
		crows := make([]row, 0, len(corruptAt))
		for n, c := range corruptAt {
			crows = append(crows, row{n, int64(c)})
		}
		sort.Slice(crows, func(i, j int) bool { return byCount(crows[i], crows[j]) })
		for i, r := range crows {
			if i >= top {
				break
			}
			fmt.Fprintf(w, "  node %3d: %d\n", r.node, r.ns)
		}
	}
}

func printTimeline(w io.Writer, events []trace.Event, txop uint64) {
	for _, ev := range events {
		if ev.Frame.Txop != txop {
			continue
		}
		fmt.Fprintf(w, "%12.3fµs %-7s node %-3d %-4s tx=%d pkts=%d %dB %.1fµs\n",
			float64(ev.TimeNs)/1e3, ev.Kind, ev.Node, ev.Frame.Kind,
			ev.Frame.Tx, ev.Frame.Packets, ev.Frame.Bytes,
			float64(ev.Frame.DurationNs)/1e3)
	}
}
