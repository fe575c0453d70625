package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ripple/internal/stats"
)

// save is put and write — grid fp's progress, on disk when it returns — for
// the tests and the fuzzer that build checkpoint files grid by grid.
func (ck *Checkpoint) save(fp string, done []bool, cells []walRecord) error {
	ck.put(fp, done, cells)
	return ck.write()
}

// checkpointImage is a checkpoint file holding recs, each a record's JSON,
// as they are and in order: the version line and one journal frame each.
func checkpointImage(recs ...string) []byte {
	image := fmt.Sprintf("{\"version\":%d}\n", checkpointVersion)
	for _, r := range recs {
		image += fmt.Sprintf("%d\n%s\n", len(r), r)
	}
	return []byte(image)
}

// A snapshot is the version line and one journal frame per done cell, grids
// in fingerprint order and cells in index order, whatever order the grids
// were put in and the cells arrived in — so two writes of the same state are
// the same bytes, and a loaded checkpoint writes back the file it was read
// from. The file knows what it holds (covers, Size), and a state it already
// holds is not written again.
func TestCheckpointWriteIsOrderedAndDeterministic(t *testing.T) {
	dir := t.TempDir()
	var w stats.Welford
	w.Add(1.5)
	w.Add(-2)
	// Enough grids that map iteration is all but certain to visit them out
	// of order, and fingerprints whose escaped forms sort differently.
	var fps []string
	for i := range 40 {
		fps = append(fps, fmt.Sprintf("fp-%02d", (i*17)%40))
	}
	fps = append(fps, "fp-\"a\"< >\\", "fp-empty")
	// Grid fps[g] has cells 0..g%7+1, every one done but cell 0 (none of
	// fp-empty's); build puts the grids in one order or the other and the
	// cells in arrival order or its reverse.
	build := func(path string, reverse bool) *Checkpoint {
		ck := NewCheckpoint(path)
		for g := range fps {
			if reverse {
				g = len(fps) - 1 - g
			}
			fp, n := fps[g], g%7+2
			if fp == "fp-empty" {
				n = 1
			}
			done := make([]bool, n)
			cells := make([]walRecord, n)
			ck.put(fp, done, cells)
			for k := 1; k < n; k++ {
				i := 1 + (k*3)%(n-1)
				for done[i] {
					i = 1 + i%(n-1)
				}
				if reverse {
					i = n - i
					for done[i] {
						i = 1 + i%(n-1)
					}
				}
				done[i] = true
				cells[i] = walRecord{
					Payload: json.RawMessage(fmt.Sprintf(`{"cell":%d,"grid":%q,"html":"<&>"}`, i, fp)),
					Stats:   map[string]stats.State{"tput": w.State(), "delay<ms>": w.State()},
				}
				ck.put(fp, done, cells) // after every cell, as the committer may
			}
		}
		if err := ck.write(); err != nil {
			t.Fatal(err)
		}
		return ck
	}
	a := build(filepath.Join(dir, "a.ckpt"), false)
	b := build(filepath.Join(dir, "b.ckpt"), true)
	fileA, err := os.ReadFile(a.Path())
	if err != nil {
		t.Fatal(err)
	}
	fileB, err := os.ReadFile(b.Path())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fileA, fileB) {
		t.Fatal("two writes of the same state differ")
	}

	line, body, _ := bytes.Cut(fileA, []byte("\n"))
	if want := fmt.Sprintf(`{"version":%d}`, checkpointVersion); string(line) != want {
		t.Fatalf("first line %q, want %q", line, want)
	}
	recs, valid, err := decodeWAL(body)
	if err != nil || valid != len(body) {
		t.Fatalf("the records do not decode as journal frames: %d of %d bytes, %v", valid, len(body), err)
	}
	total := 0
	for _, recs := range a.grids {
		total += len(recs)
	}
	if len(recs) != total {
		t.Fatalf("%d frames for %d done cells", len(recs), total)
	}
	for i := 1; i < len(recs); i++ {
		p, r := recs[i-1], recs[i]
		if p.Grid > r.Grid || p.Grid == r.Grid && p.Cell >= r.Cell {
			t.Fatalf("frame %d (%s/%d) follows %s/%d: want grids in fingerprint order, cells in index order",
				i, r.Grid, r.Cell, p.Grid, p.Cell)
		}
	}

	// A loaded checkpoint written again is the same file.
	loaded, err := LoadCheckpoint(a.Path())
	if err != nil {
		t.Fatal(err)
	}
	for fp, recs := range a.grids {
		if len(recs) == 0 {
			continue // a grid with no done cell leaves no frame
		}
		done, cells, err := loaded.restore(fp, 9)
		if err != nil {
			t.Fatal(err)
		}
		loaded.put(fp, done, cells)
	}
	if err := loaded.write(); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(a.Path()); err != nil || !bytes.Equal(again, fileA) {
		t.Fatalf("a loaded checkpoint wrote back other bytes (%v)", err)
	}

	if !a.covers("fp-07", 1) || a.covers("fp-07", 0) || a.covers("fp-empty", 0) || a.covers("fp-unknown", 0) ||
		a.covers("fp-07", -1) || a.covers("fp-07", 64) {
		t.Fatal("covers disagrees with the file: want fp-07 cell 1 and not cell 0")
	}
	if fi, err := os.Stat(a.Path()); err != nil || fi.Size() != a.Size() {
		t.Fatalf("Size() = %d, file %v (%v)", a.Size(), fi.Size(), err)
	}
	if err := os.Remove(a.Path()); err != nil {
		t.Fatal(err)
	}
	if err := a.write(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(a.Path()); !os.IsNotExist(err) {
		t.Fatalf("an unchanged checkpoint was written again (%v)", err)
	}
}

// A checkpoint written before the file became the journal's format is one
// JSON document; its first line is that document, and the version it states
// is refused by number.
func TestCheckpointRefusesPreChangeFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	for _, old := range []string{
		`{"version":1,"grids":{}}`,
		`{"version":1,"grids":{"fp":{"num_cells":1,"done":"AQ==","cells":{"0":{"payload":[0]}}}}}`,
	} {
		if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := OpenPersistence(path, true)
		if err == nil || !strings.Contains(err.Error(), "version 1") {
			t.Fatalf("a version-1 checkpoint was not refused by its version: %v", err)
		}
	}
}

// A snapshot is renamed into place only once complete, so a checkpoint cut
// short is corrupt, not a crash point: cut anywhere inside a frame it is
// refused. The same bytes as a journal are a crash point, trimmed to the
// last whole frame. (A cut on a frame boundary leaves a shorter checkpoint
// that still parses: its missing cells run again.)
func TestCheckpointTruncatedIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	var recs []string
	for i := range 3 {
		recs = append(recs, fmt.Sprintf(`{"grid":"fp","cell":%d,"payload":{"v":%d}}`, i, i))
	}
	data := checkpointImage(recs...)
	head := bytes.IndexByte(data, '\n') + 1
	boundary := map[int]bool{head: true}
	for i := range recs {
		boundary[len(checkpointImage(recs[:i+1]...))] = true
	}
	for cut := head + 1; cut < len(data); cut++ {
		if boundary[cut] {
			continue
		}
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(path); err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("checkpoint cut at byte %d of %d loaded: %v", cut, len(data), err)
		}
		if err := os.WriteFile(path+".wal", data[head:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := OpenWAL(path + ".wal")
		if err != nil {
			t.Fatalf("journal cut at byte %d: %v", cut-head, err)
		}
		kept := len(w.Restored())
		w.Close()
		if fi, err := os.Stat(path + ".wal"); err != nil || !boundary[head+int(fi.Size())] || kept == len(recs) {
			t.Fatalf("journal cut at byte %d not trimmed to a frame boundary: %d records kept (%v)", cut-head, kept, err)
		}
	}
	if err := os.WriteFile(path, data[:head-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("a checkpoint cut inside its version line loaded: %v", err)
	}
}

// restore takes a grid's records only if each is a distinct cell in range
// with a payload; any other record refuses the whole grid, through the
// coordinator as through restore.
func TestCheckpointRestoreRefusesBadRecords(t *testing.T) {
	rec := func(cell int) string { return fmt.Sprintf(`{"grid":"fp","cell":%d,"payload":[%[1]d]}`, cell) }
	for _, c := range []struct {
		name string
		recs []string
		want string
	}{
		{"duplicate", []string{rec(0), rec(1), rec(1)}, "recorded twice"},
		{"out of range", []string{rec(0), rec(3)}, "out of range"},
		{"negative", []string{rec(-1)}, "out of range"},
		{"empty payload", []string{rec(0), `{"grid":"fp","cell":2}`}, "empty payload"},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ckpt.json")
			if err := os.WriteFile(path, checkpointImage(c.recs...), 0o644); err != nil {
				t.Fatal(err)
			}
			ck, wal, err := OpenPersistence(path, true)
			if err != nil {
				t.Fatal(err)
			}
			defer wal.Close()
			if done, _, err := ck.restore("fp", 3); err == nil || !strings.Contains(err.Error(), c.want) || done != nil {
				t.Fatalf("restore = %v, %v; want no cells and an error saying %q", done, err, c.want)
			}
			co := NewCoordinator(Options{Checkpoint: ck, WAL: wal})
			defer co.Close()
			if _, err := co.RunGrid(GridSpec{Fingerprint: "fp", NumCells: 3, RunsPerCell: 1}); err == nil ||
				!strings.Contains(err.Error(), c.want) {
				t.Fatalf("RunGrid = %v, want an error saying %q", err, c.want)
			}
		})
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
	if err := ck.save("g", []bool{false, true}, []walRecord{{}, {Payload: json.RawMessage(`{"v":1}`)}}); err != nil {
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
