// Package golden holds test output to files under testdata — the Result
// pins, the CLI goldens, the grid fingerprints and the experiment table
// corpus: one -update flag that rewrites them, a byte comparison that
// reports the JSON paths which differ instead of two blobs, a summary that
// stands in for a JSONL trace too large to commit, and a ledger that makes
// every change to a pin directory say why. Only _test.go files import it
// (scripts/check_substrate.sh), so none of it ships in a binary.
package golden

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata from this run's output")

// Pin is what a pin file holds: a run's whole Result and, for a traced
// run, the summary of its JSONL trace.
type Pin struct {
	Result any    `json:"result"`
	Trace  *Trace `json:"trace,omitempty"`
}

// Marshal is v's indented JSON and a newline: the bytes of a JSON golden
// file. Compacted, it is json.Marshal(v).
func Marshal(t testing.TB, v any) []byte {
	t.Helper()
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(blob, '\n')
}

// Check fails t unless got is the file at path byte for byte; under
// -update it writes got to path first.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if err := check(path, got); err != nil {
		t.Error(err)
	}
}

func check(path string, got []byte) error {
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			return err
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("%w (go test -update writes it)", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s differs from this run (pinned → now):\n%s", path, Diff(want, got))
	}
	return nil
}

// maxDiff bounds the lines Diff reports.
const maxDiff = 40

// Diff reports, one per line, where got differs from want: the JSON paths
// (want → got) when both are JSON documents, numbers compared as written so
// that a uint64 counter compares exactly, and otherwise the lines.
func Diff(want, got []byte) string {
	var out []string
	w, errW := decode(want)
	g, errG := decode(got)
	if errW == nil && errG == nil {
		walk(&out, "", w, g)
	} else {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
		for i := range max(len(wl), len(gl)) {
			if a, b := line(wl, i), line(gl, i); a != b {
				out = append(out, fmt.Sprintf("line %d: %s → %s", i+1, a, b))
			}
		}
	}
	if len(out) == 0 {
		return "the same values, written differently"
	}
	if len(out) > maxDiff {
		out = append(out[:maxDiff], fmt.Sprintf("… and %d more", len(out)-maxDiff))
	}
	return strings.Join(out, "\n")
}

func decode(b []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("more than one JSON value")
	}
	return v, nil
}

func line(lines []string, i int) string {
	if i >= len(lines) {
		return "(absent)"
	}
	return fmt.Sprintf("%q", lines[i])
}

// absent stands for a member or element one side does not have.
type absent struct{}

func walk(out *[]string, path string, want, got any) {
	switch w := want.(type) {
	case map[string]any:
		if g, ok := got.(map[string]any); ok {
			keys := append(slices.Collect(maps.Keys(w)), slices.Collect(maps.Keys(g))...)
			slices.Sort(keys)
			for _, k := range slices.Compact(keys) {
				walk(out, strings.TrimPrefix(path+"."+k, "."), member(w, k), member(g, k))
			}
			return
		}
	case []any:
		if g, ok := got.([]any); ok {
			for i := range max(len(w), len(g)) {
				walk(out, fmt.Sprintf("%s[%d]", path, i), element(w, i), element(g, i))
			}
			return
		}
	default:
		// A scalar (json.Number, string, bool, nil) or absent: comparable.
		if want == got {
			return
		}
	}
	*out = append(*out, fmt.Sprintf("%s: %s → %s", path, show(want), show(got)))
}

func member(m map[string]any, k string) any {
	if v, ok := m[k]; ok {
		return v
	}
	return absent{}
}

func element(s []any, i int) any {
	if i < len(s) {
		return s[i]
	}
	return absent{}
}

func show(v any) string {
	if v == (absent{}) {
		return "(absent)"
	}
	blob, _ := json.Marshal(v) // re-encodes a decoded value: cannot fail
	if s := string(blob); len(s) <= 80 {
		return s
	}
	return string(blob[:77]) + "…"
}

// Trace summarises the JSONL trace written to it — its sha256, its line
// count and how many lines carry each event kind (a line's first "kind"
// member, as internal/trace writes it) — without holding the trace. Sum
// fills the exported fields.
type Trace struct {
	SHA256 string         `json:"sha256"`
	Lines  int            `json:"lines"`
	Events map[string]int `json:"events"`

	h    hash.Hash
	line []byte // the unfinished line, when a write ends inside one
}

func (tr *Trace) Write(p []byte) (int, error) {
	if tr.h == nil {
		tr.h, tr.Events = sha256.New(), map[string]int{}
	}
	tr.h.Write(p)
	for rest := p; ; {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			tr.line = append(tr.line, rest...)
			return len(p), nil
		}
		tr.line = append(tr.line, rest[:i]...)
		tr.count(tr.line)
		tr.line, rest = tr.line[:0], rest[i+1:]
	}
}

func (tr *Trace) count(line []byte) {
	const key = `"kind":"`
	tr.Lines++
	if i := bytes.Index(line, []byte(key)); i >= 0 {
		kind := line[i+len(key):]
		if j := bytes.IndexByte(kind, '"'); j >= 0 {
			tr.Events[string(kind[:j])]++
		}
	}
}

// Sum completes the summary and returns it.
func (tr *Trace) Sum() *Trace {
	tr.Write(nil) // start an empty summary
	if len(tr.line) > 0 {
		tr.count(tr.line)
		tr.line = nil
	}
	tr.SHA256 = hex.EncodeToString(tr.h.Sum(nil))
	return tr
}

// LedgerFile is the name of a pin directory's ledger.
const LedgerFile = "CHANGES"

// Ledger fails t unless dir's ledger — lines of "name sha256 reason",
// blank lines and # comments aside — has exactly one line for every other
// file in dir, carrying that file's current sha256, and none for a file dir
// does not hold. The digest only notices that a pin moved: a pin that moves
// gets its line rewritten with the new digest and the reason, in the same
// commit. What moved is the comparison's report, never the digest's. Under
// -update, which is rewriting the files, Ledger skips t: the next run
// checks them.
func Ledger(t testing.TB, dir string) {
	t.Helper()
	if *update {
		t.Skip("-update rewrites the pins: the next run checks them against the ledger")
	}
	for _, err := range checkLedger(dir) {
		t.Error(err)
	}
}

func checkLedger(dir string) []error {
	ledger := filepath.Join(dir, LedgerFile)
	text, err := os.ReadFile(ledger)
	if err != nil {
		return []error{err}
	}
	var errs []error
	var names []string
	sums := map[string]string{}
	for n, line := range strings.Split(string(text), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0 || strings.HasPrefix(f[0], "#"):
		case len(f) < 3 || len(f[1]) != 2*sha256.Size:
			errs = append(errs, fmt.Errorf("%s:%d: not `name sha256 reason`", ledger, n+1))
		case sums[f[0]] != "":
			errs = append(errs, fmt.Errorf("%s:%d: a second line for %s", ledger, n+1, f[0]))
		default:
			names, sums[f[0]] = append(names, f[0]), f[1]
		}
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		return append(errs, err)
	}
	for _, f := range files {
		if f.IsDir() || f.Name() == LedgerFile {
			continue
		}
		blob, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(blob)); sums[f.Name()] != sum {
			errs = append(errs, fmt.Errorf("%s has no line in %s for its sha256: write `%s %s <why it moved>` there",
				filepath.Join(dir, f.Name()), ledger, f.Name(), sum))
		}
		delete(sums, f.Name())
	}
	for _, name := range names {
		if _, ok := sums[name]; ok {
			errs = append(errs, fmt.Errorf("%s has a line for %s, which is not in %s", ledger, name, dir))
		}
	}
	return errs
}
