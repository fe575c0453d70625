package main

import (
	"flag"
	"slices"
	"strings"
	"testing"
)

// TestRewriteArgv: the one argv rewriter behind the worker command line,
// the supervisor's child command line and its -ckpt → -resume restart. The
// flag set decides what is boolean: "dry" is dropped everywhere below and
// appears in no list of booleans, the mistake that made a hand-kept isBool
// map swallow the argument after it.
func TestRewriteArgv(t *testing.T) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.String("run", "", "")
	fs.Int("workers", 0, "")
	fs.String("ckpt", "", "")
	fs.String("resume", "", "")
	fs.Bool("json", false, "")
	fs.Bool("dry", false, "")
	fs.Bool("quick", false, "")
	drop := map[string][]string{"workers": nil, "ckpt": nil, "json": nil, "dry": nil}
	resume := map[string][]string{"ckpt": {"-resume", "ck.json"}}
	cases := []struct {
		name string
		swap map[string][]string
		in   string
		want string
	}{
		{"attached value", drop, "x -run=fig3 -workers=2 -quick", "x -run=fig3 -quick"},
		{"detached value", drop, "x -workers 2 -run fig3 -ckpt ck.json -quick", "x -run fig3 -quick"},
		{"double dash", drop, "x --workers 2 --run fig3", "x --run fig3"},
		{"bool keeps the next flag", drop, "x -json -run fig3", "x -run fig3"},
		{"bool then positional", drop, "x -quick -dry fig3 -workers 2", "x -quick fig3 -workers 2"},
		{"bool with attached value", drop, "x -json=false -run fig3", "x -run fig3"},
		{"kept value that looks like a flag", drop, "x -run -workers -quick", "x -run -workers -quick"},
		{"dropped flag last", drop, "x -quick -workers", "x -quick"},
		{"terminator", drop, "x -quick -- -workers 2", "x -quick -- -workers 2"},
		{"ckpt to resume, detached", resume, "x -workers 2 -ckpt old.json -quick", "x -workers 2 -resume ck.json -quick"},
		{"ckpt to resume, attached", resume, "x -ckpt=old.json -run fig3", "x -resume ck.json -run fig3"},
		{"already resuming", resume, "x -workers 2 -resume ck.json", "x -workers 2 -resume ck.json"},
	}
	for _, c := range cases {
		in := strings.Fields(c.in)
		got := rewriteArgv(fs, in, c.swap)
		if want := strings.Fields(c.want); !slices.Equal(got, want) {
			t.Errorf("%s: %q -> %q, want %q", c.name, in, got, want)
		}
		if !slices.Equal(in, strings.Fields(c.in)) {
			t.Errorf("%s: input argv modified", c.name)
		}
	}
}
