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
// the tests and the fuzzer that build checkpoint files grid by grid. The
// done cells are journalled first, in a journal of their own, as the
// coordinator journals every cell before it counts: a snapshot copies them
// from there.
func (ck *Checkpoint) save(fp string, done []bool, cells []walRecord) error {
	wal, err := CreateWAL(ck.path + ".save.wal")
	if err != nil {
		return err
	}
	defer wal.Close()
	var recs []walRecord
	for i, ok := range done {
		if ok {
			r := cells[i]
			r.Grid, r.Cell = fp, i
			recs = append(recs, r)
		}
	}
	if err := wal.appendBatch(recs); err != nil {
		return err
	}
	ck.put(fp, done)
	return ck.write(wal)
}

// checkpointImage is a checkpoint file holding recs, each a record's JSON,
// as they are and in order: the version line stating their count and one
// journal frame each.
func checkpointImage(recs ...string) []byte {
	image := fmt.Sprintf("{\"version\":%d,\"cells\":%d}\n", checkpointVersion, len(recs))
	for _, r := range recs {
		image += fmt.Sprintf("%d\n%s\n", len(r), r)
	}
	return []byte(image)
}

// A snapshot is the version line and one journal frame per done cell, grids
// in fingerprint order and cells in index order, whatever order the grids
// were put in and the cells arrived in the journal in — so two writes of the
// same state are the same bytes, and a loaded checkpoint writes back the
// file it was read from. The file knows what it holds (covers, Size), and a
// state it already holds is not written again.
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
	// cells in arrival order or its reverse, journalling each as it arrives.
	build := func(path string, reverse bool) *Checkpoint {
		ck := NewCheckpoint(path)
		wal, err := CreateWAL(path + ".wal")
		if err != nil {
			t.Fatal(err)
		}
		defer wal.Close()
		for g := range fps {
			if reverse {
				g = len(fps) - 1 - g
			}
			fp, n := fps[g], g%7+2
			if fp == "fp-empty" {
				n = 1
			}
			done := make([]bool, n)
			ck.put(fp, done)
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
				if err := wal.Append(fp, i, json.RawMessage(fmt.Sprintf(`{"cell":%d,"grid":%q,"html":"<&>"}`, i, fp)),
					map[string]stats.State{"tput": w.State(), "delay<ms>": w.State()}); err != nil {
					t.Fatal(err)
				}
				ck.put(fp, done) // after every cell, as the committer may
			}
		}
		if err := ck.write(wal); err != nil {
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

	total := 0
	for _, cells := range a.grids {
		total += len(cells)
	}
	line, body, _ := bytes.Cut(fileA, []byte("\n"))
	if want := fmt.Sprintf(`{"version":%d,"cells":%d}`, checkpointVersion, total); string(line) != want {
		t.Fatalf("first line %q, want %q", line, want)
	}
	recs, valid, err := decodeWAL(body)
	if err != nil || valid != len(body) {
		t.Fatalf("the records do not decode as journal frames: %d of %d bytes, %v", valid, len(body), err)
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

	// A loaded checkpoint written again, from nothing but its own file, is
	// the same file.
	loaded, err := LoadCheckpoint(a.Path())
	if err != nil {
		t.Fatal(err)
	}
	empty, err := CreateWAL(filepath.Join(dir, "empty.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	for fp, cells := range a.grids {
		if len(cells) == 0 {
			continue // a grid with no done cell leaves no frame
		}
		done, _, err := loaded.restore(fp, 9)
		if err != nil {
			t.Fatal(err)
		}
		loaded.put(fp, done)
	}
	if err := loaded.write(empty); err != nil {
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
	if err := a.write(empty); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(a.Path()); !os.IsNotExist(err) {
		t.Fatalf("an unchanged checkpoint was written again (%v)", err)
	}
}

// A checkpoint written before the file became the journal's format is one
// JSON document; its first line is that document, and the version it states
// is refused by number. So is a version-2 file, the journal's format with no
// frame count on its version line.
func TestCheckpointRefusesPreChangeFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	rec := `{"grid":"fp","cell":0,"payload":[0]}`
	for old, version := range map[string]string{
		`{"version":1,"grids":{}}`: "version 1",
		`{"version":1,"grids":{"fp":{"num_cells":1,"done":"AQ==","cells":{"0":{"payload":[0]}}}}}`: "version 1",
		fmt.Sprintf("{\"version\":2}\n%d\n%s\n", len(rec), rec):                                    "version 2",
	} {
		if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := OpenPersistence(path, true)
		if err == nil || !strings.Contains(err.Error(), version) {
			t.Fatalf("a %s checkpoint was not refused by its version: %v", version, err)
		}
	}
}

// A snapshot is renamed into place only once complete, so a checkpoint cut
// short is corrupt, not a crash point: cut anywhere — inside a frame, or on
// a frame boundary, where fewer frames follow than the version line states —
// it is refused. The same bytes as a journal are a crash point, trimmed to
// the last whole frame.
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
	for i, off := 0, head; i < len(recs); i++ {
		off += len(fmt.Sprintf("%d\n%s\n", len(recs[i]), recs[i]))
		boundary[off] = true
	}
	for cut := head; cut < len(data); cut++ {
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
		kept := len(w.frames)
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
	if len(ck.grids) != 0 || len(wal.frames) != 0 {
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
	if recs := wal.frames; len(recs) != 1 || recs[0].Cell != 1 {
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
	if len(ck.grids) != 1 || len(wal.frames) != 1 {
		t.Fatalf("resume restored %d grids and %d journal records, want 1 and 1", len(ck.grids), len(wal.frames))
	}
	wal.Close()

	ck, wal, err = OpenPersistence(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.grids) != 0 || len(wal.frames) != 0 {
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
