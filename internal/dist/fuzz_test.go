package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzStream adapts a byte slice to the io.ReadWriter NewConn wants;
// writes go nowhere (the fuzz target only decodes).
type fuzzStream struct {
	io.Reader
	io.Writer
}

// FuzzFrameDecode throws arbitrary byte streams at Conn.Recv. The codec's
// contract under corruption: never panic, never allocate a frame the
// stream didn't deliver, and either return a Message that survives a
// Send→Recv round trip byte-identically or a descriptive error. The seeds
// cover the interesting corruption classes: a length line cut short, a
// frame body ending at EOF, a length far past maxFrame, and junk where
// the ASCII length belongs.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte("26\n{\"type\":\"hello\",\"proto\":1}\n")) // one valid frame
	f.Add([]byte("12"))                                     // truncated length line
	f.Add([]byte("100\n{\"type\":\"hello\""))               // mid-frame EOF
	f.Add([]byte("9999999999999\n{}\n"))                    // oversized length
	f.Add([]byte("junk\n{\"type\":\"ready\"}\n"))           // junk prefix
	f.Add([]byte("-3\n{}\n"))                               // negative length
	f.Add([]byte("2\n{}X"))                                 // wrong terminator
	f.Add([]byte("26\n{\"type\":\"hello\",\"proto\":1}\n26\n{\"type\":\"hello\",\"proto\":1}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(fuzzStream{bytes.NewReader(data), io.Discard})
		for {
			m, err := c.Recv()
			if err != nil {
				return // EOF or a diagnosed corruption: both fine
			}
			// A frame that decoded must re-encode and decode to the same
			// record (compare marshalled forms: json.Marshal compacts
			// RawMessage payloads and sorts map keys, so it is the
			// canonical representation of both sides).
			var pipe bytes.Buffer
			rt := NewConn(&pipe)
			if err := rt.Send(m); err != nil {
				t.Fatalf("re-encoding decoded frame: %v", err)
			}
			m2, err := rt.Recv()
			if err != nil {
				t.Fatalf("re-decoding sent frame: %v", err)
			}
			b1, err1 := json.Marshal(m)
			b2, err2 := json.Marshal(m2)
			if err1 != nil || err2 != nil {
				t.Fatalf("marshal: %v, %v", err1, err2)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("round trip changed frame:\nbefore %s\nafter  %s", b1, b2)
			}
		}
	})
}

// FuzzWALDecode throws arbitrary journal images at decodeWAL, and the same
// bytes behind the version line at LoadCheckpoint, the one decoder of both
// files. The journal's crash contract: a truncated tail is never an error
// (it is the expected shape of a coordinator killed mid-append), the
// reported valid length never exceeds the input, and the valid prefix is a
// fixed point — re-decoding it reproduces exactly the same records and
// length. The checkpoint's: it loads exactly when the whole image is valid
// journal (a torn tail is corruption there), every grid either restores to
// one non-empty record per done cell or is refused, and a write→load round
// trip of a restored grid reproduces it. Everything else malformed must be
// a diagnosed error, never a panic.
func FuzzWALDecode(f *testing.F) {
	rec := `{"grid":"g","cell":1,"payload":[1]}`
	frame := []byte(fmt.Sprintf("%d\n%s\n", len(rec), rec))
	f.Add([]byte(nil))
	f.Add(frame)
	f.Add(append(append([]byte{}, frame...), frame...))
	f.Add(append(append([]byte{}, frame...), frame[:len(frame)/2]...)) // truncated tail
	f.Add([]byte("12"))                                                // header cut short
	f.Add([]byte("zap\n{}\n"))                                         // junk length
	f.Add([]byte("-4\n{}\n"))                                          // negative length
	f.Add([]byte("9999999999999\n{}\n"))                               // oversized length
	f.Add([]byte("2\n{}X"))                                            // wrong terminator
	f.Add([]byte("3\nnop\n"))                                          // invalid JSON
	for _, r := range []string{
		`{"grid":"g","cell":-1,"payload":[0]}`,                  // negative cell
		`{"grid":"g","cell":9223372036854775807,"payload":[0]}`, // cell far out of range
		`{"grid":"g","cell":0}`,                                 // no payload
		`{"grid":"g","cell":0,"payload":[0],"stats":{"v":{"n":-4,"mean":1e308,"m2":-1}}}`,
	} {
		f.Add(append(append([]byte{}, frame...), fmt.Sprintf("%d\n%s\n", len(r), r)...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, err := decodeWAL(data)
		checkpointLoads(t, data, len(recs), err == nil && valid == len(data))
		if err != nil {
			return // diagnosed corruption
		}
		if valid < 0 || valid > len(data) {
			t.Fatalf("validLen %d outside input of %d bytes", valid, len(data))
		}
		recs2, valid2, err2 := decodeWAL(data[:valid])
		if err2 != nil {
			t.Fatalf("valid prefix does not re-decode: %v", err2)
		}
		if valid2 != valid || len(recs2) != len(recs) {
			t.Fatalf("valid prefix not a fixed point: len %d→%d, records %d→%d",
				valid, valid2, len(recs), len(recs2))
		}
		for i := range recs {
			if !reflect.DeepEqual(recs[i], recs2[i]) {
				t.Fatalf("record %d changed across re-decode", i)
			}
		}
	})
}

// FuzzCheckpointDecode throws arbitrary files at LoadCheckpoint, version
// line included (FuzzWALDecode always puts a valid one in front). The
// contract under corruption: never panic, never allocate for a cell the
// file does not hold, and either refuse the file with a descriptive error
// or load exactly a current version line followed by a whole journal of as
// many frames as the line states, whose every grid restores consistently or
// is refused, and round-trips through a write and a load. The seeds cover
// the corruption classes resume must survive: truncation mid-frame, a
// pre-change JSON document, no or a junk version line, an empty snapshot,
// negative, out-of-range and repeated cell indices, an empty payload,
// hostile Welford states, a version-2 file, and a count that disagrees with
// the frames — a file cut on a frame boundary.
func FuzzCheckpointDecode(f *testing.F) {
	frame := func(r string) string { return fmt.Sprintf("%d\n%s\n", len(r), r) }
	head := func(version, cells int) string { return fmt.Sprintf("{\"version\":%d,\"cells\":%d}\n", version, cells) }
	last := frame(`{"grid":"fp","cell":2,"payload":[2]}`)
	frames := frame(`{"grid":"fp","cell":0,"payload":[0]}`) + frame(`{"grid":"fp","cell":1,"payload":[1]}`) + last
	valid := head(checkpointVersion, 3) + frames
	f.Add([]byte(valid))
	f.Add([]byte(valid[:len(valid)-5])) // truncated mid-frame
	f.Add([]byte(`{"version":1,"grids":{"fp":{"num_cells":1,"done":"AQ==","cells":{"0":{"payload":[0]}}}}}`))
	f.Add([]byte(frame(`{"grid":"fp","cell":0,"payload":[0]}`))) // no version line
	f.Add([]byte("zap\n" + frame(`{"grid":"fp","cell":0,"payload":[0]}`)))
	f.Add([]byte(head(checkpointVersion, 0))) // an empty snapshot
	for _, r := range []string{
		`{"grid":"x","cell":-1,"payload":[0]}`,                  // negative cell
		`{"grid":"x","cell":9223372036854775807,"payload":[0]}`, // cell far out of range
		`{"grid":"fp","cell":1,"payload":[9]}`,                  // repeated cell
		`{"grid":"x","cell":0}`,                                 // no payload
		`{"grid":"x","cell":0,"payload":[0],"stats":{"v":{"n":-4,"mean":1e308,"m2":-1}}}`,
	} {
		f.Add([]byte(head(checkpointVersion, 4) + frames + frame(r)))
	}
	f.Add([]byte("{\"version\":2}\n" + frames))                                  // the previous version
	f.Add([]byte(head(checkpointVersion, 3) + frames[:len(frames)-len(last)]))   // cut on a frame boundary
	f.Add([]byte(fmt.Sprintf("{\"version\":%d}\n", checkpointVersion) + frames)) // no count

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := LoadCheckpoint(path)
		if err != nil {
			return // diagnosed corruption
		}
		line, body, _ := bytes.Cut(data, []byte("\n"))
		var v struct {
			Version int `json:"version"`
			Cells   int `json:"cells"`
		}
		if err := json.Unmarshal(line, &v); err != nil || v.Version != checkpointVersion {
			t.Fatalf("loaded a file whose version line is %q", line)
		}
		frames, n, err := decodeWAL(body)
		if err != nil || n != len(body) {
			t.Fatalf("loaded a file whose body is not a whole journal: %d of %d bytes, %v", n, len(body), err)
		}
		if len(frames) != v.Cells {
			t.Fatalf("loaded %d frames behind a version line stating %d", len(frames), v.Cells)
		}
		checkRestoreRoundTrip(t, dir, ck)
	})
}

// checkpointLoads loads frames behind a version line stating n of them as a
// checkpoint, which must succeed exactly when want says the frames are a
// whole journal, and checks the round trip of every grid of it.
func checkpointLoads(t *testing.T, frames []byte, n int, want bool) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt")
	image := append([]byte(fmt.Sprintf("{\"version\":%d,\"cells\":%d}\n", checkpointVersion, n)), frames...)
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if (err == nil) != want {
		t.Fatalf("LoadCheckpoint = %v, but the frames are a whole journal: %v", err, want)
	}
	if err != nil {
		return
	}
	checkRestoreRoundTrip(t, dir, ck)
}

// checkRestoreRoundTrip restores every grid of a loaded checkpoint: to at
// most the first maxFuzzCells cells, so a hostile cell index is refused as
// out of range rather than allocated. A grid that restores is written (in
// dir), loaded and restored again, and must come back the same.
func checkRestoreRoundTrip(t *testing.T, dir string, ck *Checkpoint) {
	const maxFuzzCells = 1 << 12
	for fp, recs := range ck.disk {
		numCells := 0
		for _, r := range recs {
			if r.Cell >= numCells {
				numCells = min(r.Cell, maxFuzzCells) + 1
			}
		}
		done, cells, err := ck.restore(fp, numCells)
		if err != nil {
			continue // diagnosed: a repeated, out-of-range or empty record
		}
		n := 0
		for i, ok := range done {
			if !ok {
				continue
			}
			n++
			if len(cells[i].Payload) == 0 || cells[i].Cell != i || cells[i].Grid != fp {
				t.Fatalf("grid %q: cell %d restored as %+v", fp, i, cells[i])
			}
		}
		if n != len(recs) {
			t.Fatalf("grid %q: %d records restored as %d done cells", fp, len(recs), n)
		}
		rt := NewCheckpoint(filepath.Join(dir, "rt"))
		if err := rt.save(fp, done, cells); err != nil {
			t.Fatalf("grid %q: restored cells do not write: %v", fp, err)
		}
		rt2, err := LoadCheckpoint(rt.Path())
		if err != nil {
			t.Fatalf("grid %q: written checkpoint does not load: %v", fp, err)
		}
		done2, cells2, err := rt2.restore(fp, numCells)
		if err != nil {
			t.Fatalf("grid %q: written checkpoint does not restore: %v", fp, err)
		}
		if !reflect.DeepEqual(done, done2) {
			t.Fatalf("grid %q: done cells changed across the round trip", fp)
		}
		// Compare marshalled forms: writing compacts a payload's whitespace.
		for i := range cells {
			b1, err1 := json.Marshal(cells[i])
			b2, err2 := json.Marshal(cells2[i])
			if err1 != nil || err2 != nil || !bytes.Equal(b1, b2) {
				t.Fatalf("grid %q: cell %d changed across the round trip:\n%s\n%s", fp, i, b1, b2)
			}
		}
	}
}
