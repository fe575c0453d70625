package main

import (
	"bytes"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ripple/internal/golden"
	"ripple/internal/topology"
)

// TestGoldenStdout runs the program in-process over one flag set per output
// shape — seed-averaged text with a CI, multi-flow text, the routing /
// mobility / fault banner with its degradation line, JSON, the Roofnet
// topology through the public Router, and a duration under a second in the
// header — and compares stdout with the file under testdata byte for byte.
func TestGoldenStdout(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden numbers are amd64 values: other targets may fuse float operations differently")
	}
	cases := []struct{ name, args string }{
		{"line_ftp", "-topo line -hops 3 -traffic ftp -dur 1 -seeds 2"},
		{"fig1_afr", "-topo fig1 -route 1 -flows 3 -scheme afr -dur 1"},
		{"markov_churn_etx", "-hops 4 -mobility markov -mtbf 2 -routing etx -faults partition=1000+1500 -dur 4"},
		{"json", "-dur 1 -json"},
		{"roofnet", "-topo roofnet -flows 2 -scheme mcexor -dur 1"},
		{"fractional_dur", "-hops 1 -scheme dcf -dur 0.2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(c.args), &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			if stderr.Len() != 0 {
				t.Errorf("stderr not empty:\n%s", stderr.String())
			}
			golden.Check(t, filepath.Join("testdata", c.name+".golden"), stdout.Bytes())
		})
	}
}

// TestRoofnetFlows: -flows picks the first n of the six Fig. 12 pairs, and
// the routes the public Router finds for them have the figure's 3, 4 and 5
// hops — more than -flows asks for is all six, not an error.
func TestRoofnetFlows(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields("-topo roofnet -flows 9 -scheme dcf -dur 1"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if n := strings.Count(stdout.String(), "\nflow "); n != len(topology.RoofnetPairs) {
		t.Fatalf("%d flow lines, want %d:\n%s", n, len(topology.RoofnetPairs), stdout.String())
	}
}

// TestUsageErrors: what the program refuses, it refuses with exit code 2,
// the reason on stderr and nothing on stdout — including an option the
// selected policy would ignore, which only Scenario.Validate knows about.
func TestUsageErrors(t *testing.T) {
	cases := []struct{ args, want string }{
		{"-topo bogus", `unknown topology "bogus"`},
		{"-scheme zzz", `unknown scheme "zzz"`},
		{"-alpha 0.5", "Routing.WithAlpha only applies to CongestionRouting"},
		{"-maxspeed 20", "Mobility options need a mobility model"},
		{"-mobility markov -stay 1.5", "Mobility.WithStay wants a probability with 0 < stay < 1 (got 1.5)"},
		{"-mobility waypoint -maxspeed -3", "Mobility.WithSpeed wants 0 <= min <= max (got 0, -3)"},
		{"-routing congestion -alpha -0.5", "Routing.WithAlpha must not be negative (got -0.5)"},
		{"-mtbf 1 -mttr -2", "Faults MTTR must not be negative (got -2s)"},
		{"-dur -1", "-dur -1: need a positive number"},
		{"-dur 0", "-dur 0: need a positive number"},
		{"-seeds 0", "-seeds 0: need at least one seed"},
		{"-seeds -2", "-seeds -2: need at least one seed"},
		{"-hops 0", "-hops 0: a line needs at least one hop"},
		{"-hops -2", "-hops -2: a line needs at least one hop"},
		{"-parallel -1", "-parallel -1 -workers 0: need 0 (the default) or more of each"},
		{"-workers -3", "-parallel 0 -workers -3: need 0 (the default) or more of each"},
		{"-trace " + filepath.Join(t.TempDir(), "t.jsonl") + " -workers 2", "-trace and -workers are mutually exclusive"},
		{"-nosuchflag", "flag provided but not defined"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(c.args), &stdout, &stderr); code != 2 {
			t.Errorf("ripplesim %s: exit %d, want 2", c.args, code)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("ripplesim %s: stderr %q does not mention %q", c.args, stderr.String(), c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("ripplesim %s: wrote to stdout:\n%s", c.args, stdout.String())
		}
	}
}
