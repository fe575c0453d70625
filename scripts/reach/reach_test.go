package main

import (
	"os"
	"reflect"
	"testing"
)

// The fixture under testdata is a module fix: package internal/a, a
// directory internal/skip left out by name, and a command cmd/tool whose
// nm listing, built with inlining off, is testdata/nm.txt.

func TestListNamesEachDeclarationAsTheLinkerDoes(t *testing.T) {
	got, err := list("testdata", "fix", "internal/skip", "internal", "cmd")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"fix/internal/a.T.Value":      "internal/a/a.go:8",
		"fix/internal/a.(*T).Ptr":     "internal/a/a.go:10",
		"fix/internal/a.T.DeadValue":  "internal/a/a.go:12",
		"fix/internal/a.(*T).DeadPtr": "internal/a/a.go:14",
		"fix/internal/a.(*Ring).Push": "internal/a/a.go:19",
		"fix/internal/a.(*Ring).Drop": "internal/a/a.go:21",
		"fix/internal/a.Pair.Key":     "internal/a/a.go:29",
		"fix/internal/a.Sum":          "internal/a/a.go:32",
		"fix/internal/a.Unused":       "internal/a/a.go:40",
		"fix/cmd/tool.main":           "cmd/tool/main.go:10",
		"fix/cmd/tool.used":           "cmd/tool/main.go:17",
		"fix/cmd/tool.unused":         "cmd/tool/main.go:19",
	}
	// Not listed: init, a _test.go file, a file the build ignores, and
	// internal/skip.
	if !reflect.DeepEqual(got, want) {
		t.Errorf("list:\n got %v\nwant %v", got, want)
	}
}

func TestCutRemovesEveryBracketedGroup(t *testing.T) {
	for in, want := range map[string]string{
		"p.F":               "p.F",
		"p.F[go.shape.int]": "p.F",
		"p.room[go.shape.[]float64,go.shape.float64]":     "p.room",
		"p.(*FreeList[go.shape.struct { x [4]int }]).Get": "p.(*FreeList).Get",
		"p.Pair[go.shape.string,go.shape.int].Key":        "p.Pair.Key",
		"p.F[go.shape.[]int].func1":                       "p.F.func1",
		"type:.eq.[2]p.T[go.shape.int]":                   "type:.eq.p.T",
	} {
		if got := cut(in); got != want {
			t.Errorf("cut(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLinkReadsTextSymbolsAndMapsMain(t *testing.T) {
	data, err := os.ReadFile("testdata/nm.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	link(string(data), "fix/cmd/tool", got)
	want := map[string]bool{
		"fix/internal/a.(*Ring).Push":  true,
		"fix/internal/a.(*T).Ptr":      true,
		"fix/internal/a.Pair.Key":      true,
		"fix/internal/a.Sum":           true,
		"fix/internal/a.T.Value":       true,
		"fix/cmd/tool.main":            true,
		"fix/cmd/tool.used":            true,
		"runtime.main":                 true,
		"type:.eq.sync/atomic.Pointer": true,
	}
	// The generic dictionaries (R) and main's init tasks (D) are data.
	if !reflect.DeepEqual(got, want) {
		t.Errorf("link:\n got %v\nwant %v", got, want)
	}
}

func TestCheckReportsUnreachedAndWrongAllowLines(t *testing.T) {
	decls, err := list("testdata", "fix", "internal/skip", "internal", "cmd")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("testdata/nm.txt")
	if err != nil {
		t.Fatal(err)
	}
	linked := map[string]bool{}
	link(string(data), "fix/cmd/tool", linked)
	allow := `# a comment, then a blank line

internal/a.Unused        kept for a named item
internal/a.(*Ring).Drop
internal/a.Gone          no such function
internal/a.T.Value       linked all along
`
	got := check(decls, linked, allow, "fix")
	want := []string{
		"allow-list: internal/a.(*Ring).Drop gives no reason",
		"allow-list: internal/a.Gone is declared nowhere",
		"allow-list: internal/a.T.Value is linked; remove its line",
		"cmd/tool/main.go:19: cmd/tool.unused is linked by no binary",
		"internal/a/a.go:12: internal/a.T.DeadValue is linked by no binary",
		"internal/a/a.go:14: internal/a.(*T).DeadPtr is linked by no binary",
		"internal/a/a.go:21: internal/a.(*Ring).Drop is linked by no binary",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("check:\n got %q\nwant %q", got, want)
	}
}
