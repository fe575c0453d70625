package main

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// testdata/traces.txt is a -traces listing in pprof's format: ten stacks,
// each chosen for one case of the rule.
func TestTableChargesEachSampleByTheRule(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	total, samples, err := parse(f)
	if err != nil {
		t.Fatal(err)
	}
	if total != 1200*time.Millisecond || len(samples) != 10 {
		t.Fatalf("parsed a total of %v over %d stacks, want 1.2s over 10", total, len(samples))
	}
	ms := time.Millisecond
	want := []row{
		// 300 ms its own, and 250 ms of a shadowing draw: math/rand under
		// sim.RNG, charged to the caller of both.
		{"radio", 550 * ms, 550.0 / 1200},
		{"sim", 150 * ms, 150.0 / 1200},
		// 100 ms of a network write, runtime frames inner to it.
		{"dist", 100 * ms, 100.0 / 1200},
		// A backoff draw: sim.RNG charged to its caller.
		{"mac", 100 * ms, 100.0 / 1200},
		// An allocation in a frame clone: pkt charged to its caller.
		{"core", 90 * ms, 90.0 / 1200},
		// stats, two frames deep, charged to its caller.
		{"transport", 80 * ms, 80.0 / 1200},
		// stats under the root package only: no caller layer, so its own.
		{"stats", 30 * ms, 30.0 / 1200},
		{"runtime", 40 * ms, 40.0 / 1200},
		{"gc", 60 * ms, 60.0 / 1200},
	}
	got := table(total, samples)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("table:\n got %v\nwant %v", got, want)
	}
	sum := 0.0
	for _, r := range got {
		sum += r.share
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestParseRefusesWhatIsNotACPUListing(t *testing.T) {
	for _, text := range []string{
		"Type: inuse_space\n-----------+---\n  10MB   ripple/internal/radio.F\n",
		"Total samples = 10ms\n-----------+---\n  ten   ripple/internal/radio.F\n",
		"Total samples = 10ms\n-----------+---\n  10ms\n",
	} {
		if _, _, err := parse(strings.NewReader(text)); err == nil {
			t.Errorf("parse accepted %q", text)
		}
	}
}
