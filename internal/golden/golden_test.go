package golden

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDiffNamesEveryPathThatMoved(t *testing.T) {
	want := `{"MAC": {"Retries": 812, "Drops": 3}, "Events": 18446744073709551614,
		"Flows": [{"ID": 1, "MeanDelay": 0.01234}, {"ID": 2, "MeanDelay": 0.5}],
		"Old": {"a": 1}}`
	got := `{"MAC": {"Retries": 813, "Drops": 3}, "Events": 18446744073709551615,
		"Flows": [{"ID": 1, "MeanDelay": 0.01234}, {"ID": 2, "MeanDelay": 0.51}, {"ID": 3}],
		"New": true}`
	for _, c := range []struct{ want, got, diff string }{
		{want, got, `Events: 18446744073709551614 → 18446744073709551615
Flows[1].MeanDelay: 0.5 → 0.51
Flows[2]: (absent) → {"ID":3}
MAC.Retries: 812 → 813
New: (absent) → true
Old: {"a":1} → (absent)`},
		{"[1]", "[1.0]", "[0]: 1 → 1.0"},
		{"[1]", "[ 1 ]\n", "the same values, written differently"},
		{"a\nb\n", "a\nc\n", `line 2: "b" → "c"`},
		{"{}", "{} {}", `line 1: "{}" → "{} {}"`},
	} {
		if d := Diff([]byte(c.want), []byte(c.got)); d != c.diff {
			t.Errorf("Diff(%q, %q):\n%s\nwant:\n%s", c.want, c.got, d, c.diff)
		}
	}
}

func TestCheckUpdateWritesAndNextRunPasses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	blob := Marshal(t, Pin{Result: map[string]int{"Events": 7}})
	if err := check(path, blob); err == nil || !strings.Contains(err.Error(), "-update") {
		t.Fatalf("a missing golden file: %v", err)
	}
	*update = true
	err := check(path, blob)
	*update = false
	if err != nil {
		t.Fatal(err)
	}
	if err := check(path, blob); err != nil {
		t.Fatalf("the run after -update: %v", err)
	}
	moved := Marshal(t, Pin{Result: map[string]int{"Events": 8}})
	if err := check(path, moved); err == nil || !strings.HasSuffix(err.Error(), "\nresult.Events: 7 → 8") {
		t.Fatalf("a moved counter: %v", err)
	}
}

func TestLedgerBothWays(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sum := func(text string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(text))) }
	write("a.json", "{}\n")
	write(LedgerFile, "# name sha256 reason\na.json "+sum("{}\n")+" recorded at the start\n")
	if errs := checkLedger(dir); len(errs) != 0 {
		t.Fatalf("a consistent ledger: %v", errs)
	}

	write("a.json", "[]\n")
	errs := checkLedger(dir)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "a.json "+sum("[]\n")+" <why it moved>") {
		t.Fatalf("a moved pin with no ledger line: %v", errs)
	}

	write(LedgerFile, "a.json "+sum("[]\n")+" the flows moved\ngone.json "+sum("x")+" a pin since deleted\n")
	errs = checkLedger(dir)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "line for gone.json") {
		t.Fatalf("a ledger line with no pin: %v", errs)
	}

	write(LedgerFile, "a.json "+sum("[]\n")+"\na.json "+sum("[]\n")+" recorded\n")
	if errs := checkLedger(dir); len(errs) != 1 || !strings.Contains(errs[0].Error(), ":1: not `name sha256 reason`") {
		t.Fatalf("a line with no reason: %v", errs)
	}
}

func TestTraceSummarisesAcrossWrites(t *testing.T) {
	jsonl := `{"t_ns":1,"kind":"tx","frame":{"kind":"DATA"}}` + "\n" +
		`{"t_ns":2,"kind":"rx","frame":{"kind":"DATA"}}` + "\n" +
		`{"t_ns":3,"kind":"rx","frame":{"kind":"ACK"}}`
	var tr Trace
	for _, part := range []string{jsonl[:10], jsonl[10:60], jsonl[60:]} {
		tr.Write([]byte(part))
	}
	tr.Sum()
	if want := fmt.Sprintf("%x", sha256.Sum256([]byte(jsonl))); tr.SHA256 != want {
		t.Errorf("sha256 %s, want %s", tr.SHA256, want)
	}
	if tr.Lines != 3 || tr.Events["tx"] != 1 || tr.Events["rx"] != 2 || len(tr.Events) != 2 {
		t.Errorf("%d lines, events %v; want 3 lines, tx 1, rx 2", tr.Lines, tr.Events)
	}
}
