package main

import (
	"os"
	"reflect"
	"testing"
)

// The fixture under testdata is a module fix: package internal/a, a
// directory internal/skip left out by name, and a command cmd/tool whose
// nm listing, built with inlining off, is testdata/nm.txt.

func parseFixture(t *testing.T) *source {
	t.Helper()
	src, err := parse("testdata", "fix", "internal/skip", "internal", "cmd")
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestListNamesEachDeclarationAsTheLinkerDoes(t *testing.T) {
	got := list(parseFixture(t))
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

// The field pass declares every unexported named field of package a,
// generic types' included, and reads one only where non-test code uses it
// other than as an assignment's target or a composite-literal key.
func TestFieldsFindsEachFieldNonTestCodeReads(t *testing.T) {
	src := parseFixture(t)
	decls, read, err := fields(src, "fix/internal/", nil)
	if err != nil {
		t.Fatal(err)
	}
	wantDecls := map[string]string{
		"fix/internal/a.T.n":               "internal/a/a.go:6",
		"fix/internal/a.Ring.s":            "internal/a/a.go:17",
		"fix/internal/a.counts.written":    "internal/a/fields.go:6",
		"fix/internal/a.counts.bumped":     "internal/a/fields.go:7",
		"fix/internal/a.counts.tested":     "internal/a/fields.go:8",
		"fix/internal/a.counts.kept":       "internal/a/fields.go:9",
		"fix/internal/a.counts.inner":      "internal/a/fields.go:11",
		"fix/internal/a.counts.inner.deep": "internal/a/fields.go:12",
		"fix/internal/a.key.grid":          "internal/a/fields.go:18",
		"fix/internal/a.key.cell":          "internal/a/fields.go:18",
		"fix/internal/a.stale.n":           "internal/a/fields.go:21",
	}
	// Not declared: the exported Public, Pair's K and V, and anything of
	// cmd/tool or internal/skip.
	if !reflect.DeepEqual(decls, wantDecls) {
		t.Errorf("declared:\n got %v\nwant %v", decls, wantDecls)
	}
	wantRead := map[string]bool{
		"fix/internal/a.T.n":               true,
		"fix/internal/a.Ring.s":            true, // through an instance, Ring[string]
		"fix/internal/a.counts.kept":       true,
		"fix/internal/a.counts.inner":      true, // by c.inner.deep = 6
		"fix/internal/a.counts.inner.deep": true,
		"fix/internal/a.stale.n":           true,
	}
	if !reflect.DeepEqual(read, wantRead) {
		t.Errorf("read:\n got %v\nwant %v", read, wantRead)
	}
}

func TestCheckReportsUnreachedAndWrongAllowLines(t *testing.T) {
	src := parseFixture(t)
	data, err := os.ReadFile("testdata/nm.txt")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	link(string(data), "fix/cmd/tool", used)
	fieldDecls, read, err := fields(src, "fix/internal/", nil)
	if err != nil {
		t.Fatal(err)
	}
	for name := range read {
		used[name] = true
	}
	allow := `# a comment, then a blank line

internal/a.Unused        kept for a named item
internal/a.(*Ring).Drop
internal/a.Gone          no such function
internal/a.T.Value       linked all along
internal/a.key.grid      a map key
internal/a.key.cell      a map key
internal/a.stale.n       read all along
`
	got := check(list(src), fieldDecls, used, allow, "fix")
	want := []string{
		"allow-list: internal/a.(*Ring).Drop gives no reason",
		"allow-list: internal/a.Gone is declared nowhere",
		"allow-list: internal/a.T.Value is linked; remove its line",
		"allow-list: internal/a.stale.n is read; remove its line",
		"cmd/tool/main.go:19: cmd/tool.unused is linked by no binary",
		"internal/a/a.go:12: internal/a.T.DeadValue is linked by no binary",
		"internal/a/a.go:14: internal/a.(*T).DeadPtr is linked by no binary",
		"internal/a/a.go:21: internal/a.(*Ring).Drop is linked by no binary",
		"internal/a/fields.go:6: internal/a.counts.written is read by no non-test code",
		"internal/a/fields.go:7: internal/a.counts.bumped is read by no non-test code",
		"internal/a/fields.go:8: internal/a.counts.tested is read by no non-test code",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("check:\n got %q\nwant %q", got, want)
	}
}
