package dist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"ripple/internal/stats"
)

// decodeWAL indexes a journal image held in memory: scanFrames over data.
func decodeWAL(data []byte) (frames []frame, validLen int, err error) {
	frames, valid, err := scanFrames(bufio.NewReader(bytes.NewReader(data)), 0)
	return frames, int(valid), err
}

// walRecords reads back every record the journal holds, in file order.
func walRecords(t *testing.T, w *WAL) []walRecord {
	t.Helper()
	recs, err := readFrames(w.f, w.frames)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestWALAppendOpenRestore covers the journal's happy path: appended
// records come back byte-identical through Open, appending continues an
// opened journal, and a compaction that covers everything empties it.
func TestWALAppendOpenRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	var wf stats.Welford
	wf.Add(3.5)
	recs := []walRecord{
		{Grid: "fp-a", Cell: 0, Payload: json.RawMessage(`[0]`)},
		{Grid: "fp-a", Cell: 2, Payload: json.RawMessage(`{"x":[1,2]}`),
			Stats: map[string]stats.State{"v": wf.State()}},
		{Grid: "fp-b", Cell: 1, Payload: json.RawMessage(`"s"`)},
	}
	for _, r := range recs {
		if err := w.Append(r.Grid, r.Cell, r.Payload, r.Stats); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := walRecords(t, r); !reflect.DeepEqual(got, recs) {
		t.Fatalf("restored records differ:\ngot  %+v\nwant %+v", got, recs)
	}
	// Appending to an opened journal continues it.
	if err := r.Append("fp-b", 9, json.RawMessage(`[9]`), nil); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := walRecords(t, r2); len(got) != 4 || got[3].Cell != 9 || string(got[3].Payload) != `[9]` {
		t.Fatalf("after append-to-opened: %d records, want 4 ending in cell 9", len(got))
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != r2.Size() {
		t.Fatalf("Size() = %d, file %v (%v)", r2.Size(), fi.Size(), err)
	}
	// A snapshot that holds every record empties the journal and its
	// index.
	if err := r2.compact(func(string, int) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if got := r2.frames; len(got) != 0 || r2.Size() != 0 {
		t.Fatalf("after a compaction covering everything: %d records, %d bytes", len(got), r2.Size())
	}
	r2.Close()
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("journal after that compaction: size %d, err %v, want empty file", fi.Size(), err)
	}
}

// TestWALCompactKeepsOtherGrids guards compaction by coverage: the journal
// drops exactly the cells the checkpoint file holds. A previous
// incarnation's records of a grid the snapshot does not hold survive — or
// every supervised restart of a multi-grid campaign would rediscover the
// later grids from zero — and so does a cell of a grid the snapshot holds
// only in part, whichever incarnation journalled it.
func TestWALCompactKeepsOtherGrids(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.wal")
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Append("fp-a", 0, json.RawMessage(`[0]`), nil)
	w.Append("fp-b", 1, json.RawMessage(`[1]`), nil)
	w.Append("fp-a", 2, json.RawMessage(`[2]`), nil)
	w.Close()

	r, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	// This incarnation journals two more cells of fp-a; the snapshot holds
	// cells 0 and 4 of it and nothing of fp-b.
	r.Append("fp-a", 4, json.RawMessage(`[4]`), nil)
	r.Append("fp-a", 5, json.RawMessage(`[5]`), nil)
	ck := NewCheckpoint(filepath.Join(dir, "ckpt.json"))
	cells := make([]walRecord, 6)
	cells[0].Payload, cells[4].Payload = json.RawMessage(`[0]`), json.RawMessage(`[4]`)
	if err := ck.save("fp-a", []bool{0: true, 4: true, 5: false}, cells); err != nil {
		t.Fatal(err)
	}
	if err := r.compact(ck.covers); err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, rec := range walRecords(t, r) {
		kept = append(kept, fmt.Sprintf("%s/%d %s", rec.Grid, rec.Cell, rec.Payload))
	}
	if want := "fp-b/1 [1],fp-a/2 [2],fp-a/5 [5]"; strings.Join(kept, ",") != want {
		t.Fatalf("after compaction: journal = %v, want %s", kept, want)
	}
	// Appends continue cleanly on the compacted journal.
	if err := r.Append("fp-b", 3, json.RawMessage(`[3]`), nil); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	var got []string
	for _, rec := range r2.frames {
		got = append(got, fmt.Sprintf("%s/%d", rec.Grid, rec.Cell))
	}
	if want := "fp-b/1 fp-a/2 fp-a/5 fp-b/3"; strings.Join(got, " ") != want {
		t.Fatalf("reopened journal = %v, want %s", got, want)
	}
	// A compaction that covers nothing leaves the file alone.
	before, _ := os.Stat(path)
	if err := r2.compact(func(string, int) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if after, _ := os.Stat(path); !os.SameFile(before, after) {
		t.Fatal("a compaction with nothing to drop rewrote the journal")
	}
}

// TestWALOpenMissingFile: a campaign interrupted before its first delivery
// has no journal; Open must treat that as empty, not an error.
func TestWALOpenMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := w.frames; len(got) != 0 {
		t.Fatalf("%d records, want 0", len(got))
	}
	if err := w.Append("fp", 0, json.RawMessage(`[0]`), nil); err != nil {
		t.Fatal(err)
	}
}

// TestWALTruncatedTailTrimmed: a coordinator killed mid-append leaves a
// partial tail frame. Open must restore everything before it and trim the
// file back to the intact prefix so future appends extend cleanly.
func TestWALTruncatedTailTrimmed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Append("fp", 0, json.RawMessage(`[0]`), nil)
	w.Append("fp", 1, json.RawMessage(`[1]`), nil)
	w.Close()
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-append: complete header promising more bytes than follow.
	fmt.Fprintf(f, "64\n{\"grid\":\"fp\",\"ce")
	f.Close()

	r, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.frames; len(got) != 2 || got[1].Cell != 1 {
		t.Fatalf("restored %d records, want the 2 intact ones", len(got))
	}
	// The partial frame is gone; a new append lands on the intact prefix.
	if err := r.Append("fp", 2, json.RawMessage(`[2]`), nil); err != nil {
		t.Fatal(err)
	}
	r.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), string(intact)) {
		t.Fatal("trimmed journal lost its intact prefix")
	}
	r2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.frames; len(got) != 3 || got[2].Cell != 2 {
		t.Fatalf("after trim+append: %d records, want 3 ending in cell 2", len(got))
	}
}

// TestDecodeWALTruncationAtEveryOffset is the crash-semantics sweep: a
// journal cut at ANY byte offset must decode without error to a prefix of
// the full record sequence, and the reported valid length must be a fixed
// point (re-decoding data[:validLen] reproduces exactly the same records
// and length). That is what makes SIGKILL at an arbitrary moment safe.
func TestDecodeWALTruncationAtEveryOffset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	var wf stats.Welford
	wf.Add(1)
	wf.Add(2)
	for i := 0; i < 4; i++ {
		payload, _ := json.Marshal([]int{i, i * 10})
		if err := w.Append(fmt.Sprintf("fp-%d", i%2), i, payload,
			map[string]stats.State{"v": wf.State()}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full, n, err := decodeWAL(data)
	if err != nil || n != len(data) || len(full) != 4 {
		t.Fatalf("full image: %d records, validLen %d/%d, err %v", len(full), n, len(data), err)
	}

	for i := 0; i <= len(data); i++ {
		recs, valid, err := decodeWAL(data[:i])
		if err != nil {
			t.Fatalf("prefix %d: unexpected error %v", i, err)
		}
		if valid > i {
			t.Fatalf("prefix %d: validLen %d exceeds input", i, valid)
		}
		if len(recs) > len(full) {
			t.Fatalf("prefix %d: %d records from a %d-record image", i, len(recs), len(full))
		}
		for j := range recs {
			if !reflect.DeepEqual(recs[j], full[j]) {
				t.Fatalf("prefix %d: record %d differs from full decode", i, j)
			}
		}
		recs2, valid2, err2 := decodeWAL(data[:valid])
		if err2 != nil || valid2 != valid || len(recs2) != len(recs) {
			t.Fatalf("prefix %d: valid prefix not a fixed point: len %d→%d, err %v",
				i, valid, valid2, err2)
		}
	}
}

// TestDecodeWALRejectsGarbage: anything malformed other than a truncated
// tail is corruption and must fail loudly, including garbage after valid
// records.
func TestDecodeWALRejectsGarbage(t *testing.T) {
	rec := `{"grid":"fp","cell":0,"payload":1}`
	valid := fmt.Sprintf("%d\n%s\n", len(rec), rec)
	if recs, n, err := decodeWAL([]byte(valid)); err != nil || len(recs) != 1 || n != len(valid) {
		t.Fatalf("sanity: valid image did not decode: %d records, %v", len(recs), err)
	}
	for name, image := range map[string]string{
		"junk length":        "zap\n{}\n",
		"negative length":    "-4\n{}\n",
		"oversized length":   "9999999999999\n{}\n",
		"wrong terminator":   "2\n{}X",
		"invalid json":       "3\nnop\n",
		"garbage after tail": valid + "zap\n{}\n",
	} {
		if _, _, err := decodeWAL([]byte(image)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// OpenWAL propagates corruption rather than silently starting over.
	path := filepath.Join(t.TempDir(), "bad.wal")
	if err := os.WriteFile(path, []byte("zap\n{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(path); err == nil {
		t.Error("corrupt journal opened")
	}
}

// TestResumeFromWALOnly is the crash bar at the dist layer: a coordinator
// process that hard-crashes (the RIPPLE_DIST_CRASH_AFTER hook: no Close, no
// snapshot) after two cells counted leaves no checkpoint at all; a fresh
// coordinator resuming from the journal alone must not re-execute what it
// holds and must assemble a result deeply equal to an uninterrupted run.
func TestResumeFromWALOnly(t *testing.T) {
	grids := crashCampaign()[:1]
	g := grids[0]
	want, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	ckptPath := filepath.Join(t.TempDir(), "ckpt.json")
	crashCoordinator(t, ckptPath, 1, 2)
	if _, err := os.Stat(ckptPath); !os.IsNotExist(err) {
		t.Fatalf("checkpoint file exists (%v); the test needs a WAL-only resume", err)
	}

	ck, wal, err := OpenPersistence(ckptPath, true)
	if err != nil {
		t.Fatal(err)
	}
	// What counted was journalled first; a batch may have journalled a
	// cell more than the two that counted before the crash.
	journalled := len(wal.frames)
	if journalled < 2 {
		t.Fatalf("journal restored %d records, want at least the 2 that counted", journalled)
	}
	c := NewCoordinator(Options{Checkpoint: ck, WAL: wal, Logf: t.Logf})
	var ran int32
	wdone := countingWorker(t, c, &ran, grids)
	got, err := ExecuteGrid(c, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-wdone; err != nil {
		t.Fatalf("resuming worker: %v", err)
	}
	c.Close()
	wal.Close()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("WAL-resumed result differs:\ngot  %+v\nwant %+v", got, want)
	}
	if n := atomic.LoadInt32(&ran); int(n) != plan.NumCells()-journalled {
		t.Errorf("resume re-executed journalled cells: worker ran %d, want %d",
			n, plan.NumCells()-journalled)
	}
}

// TestWireAndJournalFramesAgree holds that the wire and the journal speak
// one frame format: a frame Conn.Send writes is one scanFrames indexes, a
// frame WAL.Append writes is one Conn.Recv reads back with the same grid,
// cell, payload and stats, and the two readers agree on where a stream cut
// at any offset stops being whole. Where the journal's valid prefix ends
// exactly at the cut, the wire reports a clean io.EOF; anywhere else the
// cut lies inside a frame, which the journal trims as its crash point and
// the wire reports as a transport error wrapping io.ErrUnexpectedEOF.
func TestWireAndJournalFramesAgree(t *testing.T) {
	var wf stats.Welford
	wf.Add(2.5)
	wf.Add(4)
	st := map[string]stats.State{"v": wf.State()}
	payload := json.RawMessage(`{"seeds":[1,2]}`)

	var wire bytes.Buffer
	if err := NewConn(&wire).Send(&Message{Type: MsgCell, Grid: "fp-wire", Lease: 4, Cell: 3,
		Payload: payload, Stats: st}); err != nil {
		t.Fatal(err)
	}
	frames, valid, err := decodeWAL(wire.Bytes())
	if err != nil || valid != wire.Len() || len(frames) != 1 ||
		frames[0] != (frame{Grid: "fp-wire", Cell: 3, off: 0, n: int64(wire.Len())}) {
		t.Fatalf("Send's frame scanned as %+v, valid %d of %d, err %v", frames, valid, wire.Len(), err)
	}

	path := filepath.Join(t.TempDir(), "run.wal")
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append("fp-wal", 5, payload, st); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(bytes.NewBuffer(journal))
	m, err := c.Recv()
	if err != nil {
		t.Fatalf("Recv of the journal's frame: %v", err)
	}
	if m.Grid != "fp-wal" || m.Cell != 5 || string(m.Payload) != string(payload) || !reflect.DeepEqual(m.Stats, st) {
		t.Fatalf("Recv of the journal's frame = %+v", m)
	}
	if _, err := c.Recv(); err != io.EOF {
		t.Fatalf("Recv after the journal's one frame = %v, want io.EOF", err)
	}

	stream := append(append(append([]byte(nil), wire.Bytes()...), journal...), wire.Bytes()...)
	for cut := 0; cut <= len(stream); cut++ {
		frames, valid, err := decodeWAL(stream[:cut])
		if err != nil {
			t.Fatalf("cut %d: scanFrames: %v", cut, err)
		}
		c := NewConn(bytes.NewBuffer(stream[:cut]))
		got := 0
		for {
			if _, err = c.Recv(); err != nil {
				break
			}
			got++
		}
		if got != len(frames) {
			t.Fatalf("cut %d: Recv read %d frames, scanFrames indexed %d", cut, got, len(frames))
		}
		if valid == cut {
			if err != io.EOF {
				t.Fatalf("cut %d on a frame boundary: Recv = %v, want bare io.EOF", cut, err)
			}
		} else if err == io.EOF || !errors.Is(err, ErrTransport) || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d inside a frame (valid %d): Recv = %v, want a transport error wrapping io.ErrUnexpectedEOF",
				cut, valid, err)
		}
	}
}
