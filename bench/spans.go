package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark makes into a layer. Spans are
// recorded from the benchmark's own files, around each call; nothing
// inside the program is instrumented.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for the root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       int    `json:"op"` // -1 outside any op
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site. It is used
// from the goroutine that drives the workload only.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	stack    []int // ids of the open spans, innermost last
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// start opens a span under the innermost open one and returns the
// function that closes it.
func (t *tracer) start(name string, op int) func() {
	if t == nil {
		return func() {}
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Workload: t.workload, Op: op, StartNs: time.Since(t.epoch).Nanoseconds()})
	t.stack = append(t.stack, id)
	return func() {
		t.spans[id-1].EndNs = time.Since(t.epoch).Nanoseconds()
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// spanStat is the per-name roll-up of a traced run.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	// SelfMs is the span time not covered by child spans: the layer's own
	// share of the interval.
	SelfMs float64 `json:"self_ms"`
}

func (t *tracer) summary() []spanStat {
	if t == nil {
		return nil
	}
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.EndNs - s.StartNs
	}
	byName := map[string]*spanStat{}
	for _, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
		}
		d := s.EndNs - s.StartNs
		st.Count++
		st.TotalMs += float64(d) / 1e6
		st.SelfMs += float64(d-child[s.ID]) / 1e6
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMs > out[j].TotalMs })
	return out
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
