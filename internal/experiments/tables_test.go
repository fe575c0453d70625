package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ripple/internal/golden"
	"ripple/internal/israce"
)

// tableDir holds the table corpus and its ledger: every experiment's and
// ablation's tables at Quick(), one Record per file as cmd/experiments
// -json writes it, and the text the command prints for them.
var tableDir = filepath.Join("testdata", "tables")

// corpusSettings are the prune settings the corpus holds, each with the
// suffix of its files: each scenario's default, and the exact medium.
var corpusSettings = []struct {
	suffix string
	prune  *float64
}{{"", nil}, {".prunesigma0", new(float64)}}

// quickRecords runs every experiment and ablation at Quick() with
// Options.PruneSigma set to prune, in the order cmd/experiments -quick
// -ablations prints them.
func quickRecords(prune *float64) ([]Record, error) {
	opt := Quick()
	opt.PruneSigma = prune
	var out []Record
	for _, r := range append(All(), Ablations()...) {
		tables, err := r.Run(opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.Name, err)
		}
		out = append(out, Record{Experiment: r.Name, Tables: tables})
	}
	return out, nil
}

// skipUnderRace skips a test that runs the quick suite: one quick run takes
// two minutes under the race detector, which has nothing to find in a
// single-goroutine run. TestEveryExperimentRuns sweeps every driver there.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if israce.Enabled {
		t.Skip("runs the quick suite: minutes under the race detector")
	}
}

// quick is the default-prune quick run, made once per test binary and
// shared by TestTablesPinned and the shape tests.
var quick struct {
	once    sync.Once
	records []Record
	err     error
}

// quickRun returns the shared quick run, making it on first use.
func quickRun(t *testing.T) []Record {
	t.Helper()
	skipUnderRace(t)
	quick.once.Do(func() { quick.records, quick.err = quickRecords(nil) })
	if quick.err != nil {
		t.Fatal(quick.err)
	}
	return quick.records
}

// quickTable returns table id of the shared quick run and logs it.
func quickTable(t *testing.T, id string) *Table {
	t.Helper()
	for _, rec := range quickRun(t) {
		for _, tab := range rec.Tables {
			if tab.ID == id {
				t.Log("\n" + tab.Format())
				return tab
			}
		}
	}
	t.Fatalf("the quick run has no table %s", id)
	return nil
}

// TestTablesPinned runs every experiment and ablation at Quick(), at each
// scenario's prune setting and on the exact medium, and compares each
// experiment's Record with its file in the corpus: <name>.json and
// <name>.prunesigma0.json. A mismatch names the file and the JSON paths
// that moved (tables[0].Rows[2].Cells[0]: 41.2 → 41.3). After an intended
// change: go test ./internal/experiments -run Tables -update, read git
// diff on the corpus, and rewrite each moved file's line in the ledger
// with the reason.
func TestTablesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the corpus holds amd64 values: other targets may fuse float operations differently")
	}
	skipUnderRace(t)
	for _, s := range corpusSettings {
		var records []Record
		if s.prune == nil {
			records = quickRun(t)
		} else {
			var err error
			if records, err = quickRecords(s.prune); err != nil {
				t.Fatal(err)
			}
		}
		for _, rec := range records {
			golden.Check(t, filepath.Join(tableDir, rec.Experiment+s.suffix+".json"), golden.Marshal(t, rec))
		}
	}
}

// TestTablesTextPinned renders the corpus's stored Records as
// cmd/experiments prints them — each table's Format and a blank line — and
// compares the text with quick.txt and quick.prunesigma0.txt. It runs no
// simulation, so it pins Format on every target and under the race
// detector. It is declared after TestTablesPinned so that -update writes
// the Records before it reads them. It also holds the directory to the
// runners and the ledger.
func TestTablesTextPinned(t *testing.T) {
	files := map[string]bool{golden.LedgerFile: true}
	for _, s := range corpusSettings {
		var b strings.Builder
		for _, r := range append(All(), Ablations()...) {
			name := r.Name + s.suffix + ".json"
			files[name] = true
			blob, err := os.ReadFile(filepath.Join(tableDir, name))
			if err != nil {
				t.Fatalf("%v (go test -update writes it)", err)
			}
			var rec Record
			if err := json.Unmarshal(blob, &rec); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, tab := range rec.Tables {
				b.WriteString(tab.Format() + "\n")
			}
		}
		name := "quick" + s.suffix + ".txt"
		files[name] = true
		golden.Check(t, filepath.Join(tableDir, name), []byte(b.String()))
	}
	golden.Ledger(t, tableDir)
	entries, err := os.ReadDir(tableDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !files[e.Name()] {
			t.Errorf("%s belongs to no experiment of All() or Ablations()", filepath.Join(tableDir, e.Name()))
		}
	}
}
