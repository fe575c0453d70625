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
	"sync"

	"ripple/internal/stats"
)

// WAL is the coordinator's result write-ahead journal: every delivered
// cell is appended and fsync'd before the coordinator counts it, so a crash
// at any moment loses nothing a worker delivered. The checkpoint is the
// journal's compaction — a snapshot the coordinator writes when the journal
// has outgrown the last one (see Coordinator) — and once a snapshot is on
// disk the journal drops exactly the records that snapshot holds. A resumed
// run replays what is left on top of the restored checkpoint.
//
// Records are the wire protocol's frames (decimal byte count, '\n', JSON,
// '\n'; writeFrame, readFrame), appended to one flat file. The
// append-only discipline gives the crash semantics: a coordinator killed
// mid-append leaves a truncated tail frame, which Open treats as the
// clean crash point — everything before it is intact — and trims. Frame
// garbage anywhere else means corruption and is a loud error.
//
// The journal keeps no record in memory, only where each lies in the file:
// a replay reads back the frames of one grid, and a compaction or a snapshot
// copies frames byte for byte.
type WAL struct {
	mu   sync.Mutex
	path string
	f    *os.File
	// frames is where each record the file holds lies, in file order.
	frames []frame
	size   int64
	buf    bytes.Buffer  // a batch's frames, written with one write
	rec    bytes.Buffer  // one record's JSON and terminator
	enc    *json.Encoder // into rec
	cp     frameCopier   // compaction's
}

// walRecord is one journalled cell: grid fingerprint, flat cell index,
// the raw payload bytes exactly as the worker sent them, and the cell's
// per-metric Welford states.
type walRecord struct {
	Grid    string                 `json:"grid"`
	Cell    int                    `json:"cell"`
	Payload json.RawMessage        `json:"payload"`
	Stats   map[string]stats.State `json:"stats,omitempty"`
}

// frame locates one record in a file: its grid and cell, and the bytes of
// its frame — length line, JSON and terminator — at off.
type frame struct {
	Grid   string
	Cell   int
	off, n int64
}

// CreateWAL starts a fresh journal at path, discarding any existing file.
func CreateWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dist: wal: %w", err)
	}
	return &WAL{path: path, f: f}, nil
}

// OpenWAL opens the journal at path for resumption, indexing the records
// already present. A missing file is an empty journal, not an error (a
// campaign interrupted before its first delivery has written nothing). A
// truncated tail frame — the coordinator died mid-append — marks the
// crash point: it is trimmed and everything before it restored. Garbage
// anywhere before the tail is corruption and fails loudly.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dist: wal: %w", err)
	}
	frames, valid, err := scanFrames(bufio.NewReaderSize(f, 64<<10), 0)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("dist: wal %s: %w", path, err)
	}
	// Appends write at the end of what is valid.
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("dist: wal: %w", err)
	}
	return &WAL{path: path, f: f, frames: frames, size: valid}, nil
}

// records reads back the records the journal holds of grid fp, in file
// order — from every incarnation, this one included.
func (w *WAL) records(fp string) ([]walRecord, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var of []frame
	for _, fr := range w.frames {
		if fr.Grid == fp {
			of = append(of, fr)
		}
	}
	recs, err := readFrames(w.f, of)
	if err != nil {
		return nil, fmt.Errorf("dist: wal %s: %w", w.path, err)
	}
	return recs, nil
}

// Size is the journal file's length in bytes.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Append journals one delivered cell and fsyncs before returning: once
// Append returns, the cell survives a crash.
func (w *WAL) Append(grid string, cell int, payload json.RawMessage, st map[string]stats.State) error {
	return w.appendBatch([]walRecord{{Grid: grid, Cell: cell, Payload: payload, Stats: st}})
}

// appendBatch journals a batch of delivered cells with one write and one
// fsync — group commit: the coordinator hands over whatever was delivered
// while the previous fsync was in flight. Once it returns, every cell of
// the batch survives a crash. One buffered write per batch: a crash can
// truncate the tail frame but never interleave two partial frames.
func (w *WAL) appendBatch(recs []walRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.enc == nil {
		w.enc = json.NewEncoder(&w.rec)
	}
	w.buf.Reset()
	frames := len(w.frames)
	for _, r := range recs {
		start := w.buf.Len()
		w.rec.Reset()
		if err := w.enc.Encode(r); err != nil {
			w.frames = w.frames[:frames]
			return fmt.Errorf("dist: wal: %w", err)
		}
		writeFrame(&w.buf, w.rec.Bytes()) // a bytes.Buffer's writes do not fail
		if k := len(w.frames); k > 0 && w.frames[k-1].Grid == r.Grid {
			r.Grid = w.frames[k-1].Grid // one string per run of a grid's frames
		}
		w.frames = append(w.frames, frame{Grid: r.Grid, Cell: r.Cell,
			off: w.size + int64(start), n: int64(w.buf.Len() - start)})
	}
	_, err := w.f.WriteAt(w.buf.Bytes(), w.size)
	if err == nil {
		err = w.f.Sync()
	}
	if err != nil {
		// The next batch lands where this one began; what this one left
		// behind is cut, as far as the file lets it.
		w.f.Truncate(w.size)
		w.frames = w.frames[:frames]
		return fmt.Errorf("dist: wal: %w", err)
	}
	w.size += int64(w.buf.Len())
	return nil
}

// compact drops from the journal every record for which covered reports
// true — the cells the checkpoint file on disk holds — and keeps the rest,
// whichever incarnation wrote them: a previous incarnation's progress on a
// grid the snapshot does not hold yet survives, as does anything delivered
// that the snapshot missed. The caller writes the snapshot first and
// compacts second, so at no moment is a cell in neither file. The kept
// frames are copied byte for byte to a new file, which is fsync'd and
// renamed into place: a crash mid-compaction leaves either the old journal
// or the new one, never a torn file. Appends continue on the new file.
func (w *WAL) compact(covered func(grid string, cell int) bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var keep []frame
	for _, fr := range w.frames {
		if !covered(fr.Grid, fr.Cell) {
			keep = append(keep, fr)
		}
	}
	if len(keep) == len(w.frames) {
		return nil
	}
	tmp, err := w.cp.writeTemp(w.path, func() error {
		for i, fr := range keep {
			var err error
			if keep[i], err = w.cp.copy(w.f, fr); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		if err = os.Rename(tmp.Name(), w.path); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}
	if err != nil {
		return fmt.Errorf("dist: wal: %w", err)
	}
	w.f.Close()
	w.f, w.frames, w.size = tmp, keep, w.cp.off
	return nil
}

// Close closes the journal file. A coordinator journalling to it must be
// closed first: its Close writes the final snapshot and compacts.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// scanFrames indexes the record frames r holds, the first at offset base.
// It returns their frames and the offset their end lies at. A truncated
// tail — a header without its newline at EOF, or a frame body shorter than
// its header promised — is the expected shape of a crash mid-append: not an
// error, the frames before it are returned and valid marks where the intact
// prefix ends. Anything else malformed (junk where the length belongs, a
// complete frame with a wrong terminator or a record that does not decode)
// is corruption and returns an error. Each record is decoded to be checked,
// and only its grid and cell are kept.
func scanFrames(r *bufio.Reader, base int64) (frames []frame, valid int64, err error) {
	off := base
	var body bytes.Buffer
	for {
		b, n, err := readFrame(r, &body)
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return frames, off, nil // the end, or a frame cut short by it: the crash point
		}
		if err != nil {
			return nil, 0, fmt.Errorf("frame at offset %d: %w", off, err)
		}
		var rec walRecord
		if uerr := json.Unmarshal(b, &rec); uerr != nil {
			return nil, 0, fmt.Errorf("bad frame at offset %d: %w", off, uerr)
		}
		if k := len(frames); k > 0 && frames[k-1].Grid == rec.Grid {
			rec.Grid = frames[k-1].Grid // one string per run of a grid's frames
		}
		frames = append(frames, frame{Grid: rec.Grid, Cell: rec.Cell, off: off, n: n})
		off += n
	}
}

// readFrames reads and decodes the records at frames of f, in order.
func readFrames(f io.ReaderAt, frames []frame) ([]walRecord, error) {
	recs := make([]walRecord, len(frames))
	var buf []byte
	for i, fr := range frames {
		if int64(cap(buf)) < fr.n {
			buf = make([]byte, fr.n)
		}
		b := buf[:fr.n]
		if _, err := f.ReadAt(b, fr.off); err != nil {
			return nil, fmt.Errorf("frame at offset %d: %w", fr.off, err)
		}
		_, body, _ := bytes.Cut(b[:len(b)-1], []byte("\n"))
		if err := json.Unmarshal(body, &recs[i]); err != nil {
			return nil, fmt.Errorf("bad frame at offset %d: %w", fr.off, err)
		}
	}
	return recs, nil
}

// frameCopier copies frames byte for byte from the files that hold them to
// a new file, through one buffered writer and one read buffer that it keeps
// for every copy. off is where the next frame lands.
type frameCopier struct {
	bw  *bufio.Writer
	buf []byte
	off int64
}

// writeTemp creates a temp file beside path and fills it by fill, which
// writes through the copier: its copies and fc.bw. The file comes back
// fsync'd, open and not yet in place; on error it is removed.
func (fc *frameCopier) writeTemp(path string, fill func() error) (*os.File, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	if fc.bw == nil {
		fc.bw, fc.buf = bufio.NewWriterSize(tmp, 64<<10), make([]byte, 64<<10)
	} else {
		fc.bw.Reset(tmp)
	}
	fc.off = 0
	err = fill()
	if err == nil {
		// A bufio.Writer keeps its first error and returns it from Flush.
		err = fc.bw.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	fc.bw.Reset(nil)
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	return tmp, nil
}

// copy appends frame fr of src to the new file and returns it as it lies
// there.
func (fc *frameCopier) copy(src io.ReaderAt, fr frame) (frame, error) {
	for done := int64(0); done < fr.n; {
		b := fc.buf[:min(fr.n-done, int64(len(fc.buf)))]
		if _, err := src.ReadAt(b, fr.off+done); err != nil {
			return frame{}, fmt.Errorf("frame at offset %d: %w", fr.off, err)
		}
		fc.bw.Write(b)
		done += int64(len(b))
	}
	fr.off = fc.off
	fc.off += fr.n
	return fr, nil
}
