package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ripple/internal/stats"
)

// save is put and write — grid fp's progress, on disk when it returns — for
// the tests and the fuzzer that build checkpoint files grid by grid.
func (ck *Checkpoint) save(fp string, numCells int, done []bool, cells []cellRecord) error {
	ck.put(fp, numCells, done, cells)
	return ck.write()
}

// A save streams the document grid by grid; what reaches the disk must still
// be json.Marshal of the document, byte for byte, after every save: partial
// grids, grids completing, a complete grid saved again with other contents,
// payloads with whitespace and characters encoding/json escapes, and a
// fingerprint that needs escaping as a key and sorts between the others.
func TestCheckpointSaveStreamsExactlyTheMarshalledDocument(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	ck := NewCheckpoint(path)
	check := func(what string) {
		t.Helper()
		want, err := json.Marshal(&ck.doc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			at := 0
			for at < len(got) && at < len(want) && got[at] == want[at] {
				at++
			}
			t.Fatalf("%s: file (%d bytes) differs from json.Marshal of the document (%d bytes) at byte %d:\n got  …%.80s\n want …%.80s",
				what, len(got), len(want), at, got[at:], want[at:])
		}
		if _, err := LoadCheckpoint(path); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	var w stats.Welford
	w.Add(1.5)
	w.Add(-2)
	record := func(fp string, i int) cellRecord {
		return cellRecord{
			Payload: json.RawMessage(fmt.Sprintf("{ \"cell\" : %d,\n\t\"grid\": %q, \"html\": \"<&>\\u2028\" }", i, fp)),
			Stats:   map[string]stats.State{"tput": w.State(), "delay<ms>": w.State()},
		}
	}
	grids := []struct {
		fp string
		n  int
	}{{"fp-b", 5}, {"fp-\"a\"< >\\", 3}, {"fp-a", 9}, {"fp-c", 1}, {"fp-empty", 0}}
	for _, g := range grids {
		done := make([]bool, g.n)
		cells := make([]cellRecord, g.n)
		if g.n == 0 {
			if err := ck.save(g.fp, 0, done, cells); err != nil {
				t.Fatal(err)
			}
			check(g.fp + " empty")
		}
		// Cells arrive out of order, one save each: every grid is saved
		// partial several times and complete once.
		for k := 0; k < g.n; k++ {
			i := (k*2 + 1) % g.n
			for done[i] {
				i = (i + 1) % g.n
			}
			done[i], cells[i] = true, record(g.fp, i)
			if err := ck.save(g.fp, g.n, done, cells); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s after %d of %d cells", g.fp, k+1, g.n))
		}
	}

	// A complete grid saved again, with different bytes.
	done := []bool{true}
	if err := ck.save("fp-c", 1, done, []cellRecord{record("other", 7)}); err != nil {
		t.Fatal(err)
	}
	check("fp-c rewritten")

	// A resumed checkpoint: its first save writes every grid it loaded, and
	// the file is again the marshalled document.
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ck = loaded
	if err := ck.save("fp-d", 2, []bool{false, true}, []cellRecord{{}, record("fp-d", 1)}); err != nil {
		t.Fatal(err)
	}
	check("resumed")

	// The file knows what it holds, and a document it already holds is not
	// written again.
	if !ck.covers("fp-d", 1) || ck.covers("fp-d", 0) || ck.covers("fp-unknown", 0) || ck.covers("fp-d", -1) || ck.covers("fp-d", 64) {
		t.Fatal("covers disagrees with the file: want fp-d cell 1 and nothing else of it")
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != ck.Size() {
		t.Fatalf("Size() = %d, file %v (%v)", ck.Size(), fi.Size(), err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := ck.write(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("an unchanged document was written again (%v)", err)
	}
}

// OpenPersistence is the one open-or-create rule the CLI and the public API
// share: fresh discards what the files hold, resume restores both, a resume
// before the first save starts from the journal alone, and a checkpoint that
// exists but does not parse is an error, never a silent fresh start.
func TestOpenPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	ck, wal, err := OpenPersistence(path, true)
	if err != nil {
		t.Fatalf("resume with neither file: %v", err)
	}
	if ck.numGrids() != 0 || len(wal.Restored()) != 0 {
		t.Fatal("resume with neither file restored something")
	}
	if err := wal.Append("g", 1, json.RawMessage(`{"v":1}`), nil); err != nil {
		t.Fatal(err)
	}
	wal.Close()

	ck, wal, err = OpenPersistence(path, true)
	if err != nil {
		t.Fatalf("resume before the first save: %v", err)
	}
	if recs := wal.Restored(); len(recs) != 1 || recs[0].Cell != 1 {
		t.Fatalf("journal records %+v, want the one appended", recs)
	}
	if err := ck.save("g", 2, []bool{false, true}, []cellRecord{{}, {Payload: json.RawMessage(`{"v":1}`)}}); err != nil {
		t.Fatal(err)
	}
	wal.Close()

	ck, wal, err = OpenPersistence(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if ck.numGrids() != 1 || len(wal.Restored()) != 1 {
		t.Fatalf("resume restored %d grids and %d journal records, want 1 and 1", ck.numGrids(), len(wal.Restored()))
	}
	wal.Close()

	ck, wal, err = OpenPersistence(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if ck.numGrids() != 0 || len(wal.Restored()) != 0 {
		t.Fatal("a fresh start kept the previous campaign's state")
	}
	wal.Close()
	if data, err := os.ReadFile(path + ".wal"); err != nil || len(data) != 0 {
		t.Fatalf("a fresh start left %d journal bytes (%v)", len(data), err)
	}

	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenPersistence(path, true); err == nil {
		t.Fatal("resume from a corrupt checkpoint succeeded")
	}
}
