package main

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ripple/internal/experiments"
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

// mainArgvEnv turns the test binary into the command: TestMain runs run()
// on its space-separated value and exits with run's code.
const mainArgvEnv = "EXPERIMENTS_TEST_ARGV"

func TestMain(m *testing.M) {
	if argv, ok := os.LookupEnv(mainArgvEnv); ok {
		os.Args = append(os.Args[:1], strings.Fields(argv)...)
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// runCommand runs the command in a child process and returns its exit
// code, stdout and stderr.
func runCommand(t *testing.T, argv string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), mainArgvEnv+"="+argv)
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), out.String(), errOut.String()
}

// tableDir is internal/experiments' table corpus: one experiments.Record
// per experiment at -quick, as -json writes it.
var tableDir = filepath.Join("..", "..", "internal", "experiments", "testdata", "tables")

// TestOutputIsTheTableCorpus: what the command prints for two quick
// ablations, in text and in -json, is what the table corpus holds for
// them — the JSON its records, the text those records' tables as Format
// renders them, each followed by a blank line.
func TestOutputIsTheTableCorpus(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the corpus holds amd64 values: other targets may fuse float operations differently")
	}
	const argv = "-quick -ablations -run ablation-rq,ablation-twoway"
	var want []experiments.Record
	var text strings.Builder
	for _, name := range []string{"ablation-rq", "ablation-twoway"} {
		blob, err := os.ReadFile(filepath.Join(tableDir, name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var rec experiments.Record
		if err := json.Unmarshal(blob, &rec); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want = append(want, rec)
		for _, tab := range rec.Tables {
			text.WriteString(tab.Format() + "\n")
		}
	}
	code, stdout, stderr := runCommand(t, argv)
	if code != 0 {
		t.Fatalf("%s: exit %d:\n%s", argv, code, stderr)
	}
	if stdout != text.String() {
		t.Errorf("%s printed\n%s\nthe corpus renders\n%s", argv, stdout, text.String())
	}
	code, stdout, stderr = runCommand(t, argv+" -json")
	if code != 0 {
		t.Fatalf("%s -json: exit %d:\n%s", argv, code, stderr)
	}
	var got []experiments.Record
	if err := json.Unmarshal([]byte(stdout), &got); err != nil {
		t.Fatalf("%s -json: %v:\n%s", argv, err, stdout)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s -json printed records other than those in %s:\n%s", argv, tableDir, stdout)
	}
}

// TestRemovedFlagsAreUsageErrors: the scheduling knobs are gone, not
// shimmed — a command line that still passes one fails flag parsing like any
// unknown flag.
func TestRemovedFlagsAreUsageErrors(t *testing.T) {
	if code, _, stderr := runCommand(t, "-list"); code != 0 {
		t.Fatalf("-list exits %d:\n%s", code, stderr)
	}
	for _, argv := range []string{"-lease 4", "-lease-timeout 1m", "-cell-timeout 30s"} {
		code, _, stderr := runCommand(t, "-run fig3 -quick -workers 2 "+argv)
		name := strings.Fields(argv)[0]
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined: "+name) {
			t.Errorf("%s: exit %d, want the usage error's 2:\n%s", argv, code, stderr)
		}
	}
}

// TestBadRunLengthsAreUsageErrors: a seed count below one, a duration
// that is not positive, or either set beside -quick would run the defaults,
// or nothing, without a word; the command refuses it with the usage error's
// exit code and names the flags.
func TestBadRunLengthsAreUsageErrors(t *testing.T) {
	for _, c := range []struct{ argv, want string }{
		{"-seeds 0", "-seeds 0: need at least one seed"},
		{"-seeds -2", "-seeds -2: need at least one seed"},
		{"-dur 0", "-dur 0: need a positive number of simulated seconds"},
		{"-dur -1", "-dur -1: need a positive number of simulated seconds"},
		{"-dur 1e-12", "-dur 1e-12: need a positive number of simulated seconds"},
		{"-prunesigma -2", "-prunesigma -2: need 0 or more sigmas, or -1 for each experiment's default"},
		{"-quick -seeds 3", "-quick and -seeds are mutually exclusive"},
		{"-dur 1 -quick", "-quick and -dur are mutually exclusive"},
		{"-quick -seeds 1 -dur 2", "-quick and -dur, -seeds are mutually exclusive"},
		{"-parallel -1", "-parallel -1 -workers 0: need 0 (the default) or more of each"},
		{"-workers -2", "-parallel 0 -workers -2: need 0 (the default) or more of each"},
		{"-reconnect 0", "-reconnect 0: need at least one dial"},
		{"-reconnect -4", "-reconnect -4: need at least one dial"},
	} {
		code, _, stderr := runCommand(t, "-run fig3 "+c.argv)
		if code != 2 || !strings.Contains(stderr, c.want) {
			t.Errorf("%s: exit %d, want 2 and %q on stderr:\n%s", c.argv, code, c.want, stderr)
		}
	}
}

// TestSuperviseOnceRemovesItsBuffer: an incarnation's buffered stdout is
// gone when the incarnation is, emitted if its exit code propagates and
// discarded if it crashed.
func TestSuperviseOnceRemovesItsBuffer(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	for _, c := range []struct {
		exit int
		want string
	}{{0, "table\n"}, {2, "table\n"}, {42, ""}} {
		var out strings.Builder
		code, err := superviseOnce([]string{"sh", "-c", "echo table; exit " + strconv.Itoa(c.exit)}, &out)
		if err != nil || code != c.exit {
			t.Fatalf("exit %d: superviseOnce = %d, %v", c.exit, code, err)
		}
		if out.String() != c.want {
			t.Errorf("exit %d: emitted %q, want %q", c.exit, out.String(), c.want)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("exit %d: %d files left in the temp directory", c.exit, len(left))
		}
	}
}
