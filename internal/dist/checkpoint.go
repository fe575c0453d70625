package dist

import (
	"bufio"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"

	"ripple/internal/stats"
)

// checkpointVersion is the on-disk format version; a mismatch is a hard
// error rather than a guess at migration.
const checkpointVersion = 1

// cellRecord is one completed cell as stored in a checkpoint: the raw
// payload bytes exactly as the worker sent them (so a resumed campaign
// reassembles bit-identical results) plus the per-metric Welford states.
type cellRecord struct {
	Payload json.RawMessage        `json:"payload"`
	Stats   map[string]stats.State `json:"stats,omitempty"`
}

// gridCheckpoint is the persisted state of one grid, keyed by its
// fingerprint in the enclosing document. Done is the completed-cell
// bitmap (LSB-first within each byte, base64-encoded); Cells holds one
// record per set bit, keyed by decimal cell index. Merged is the
// campaign-order merge of every completed cell's metric states — a
// summary for inspection, recomputed on every write so it never drifts
// from the cell records.
type gridCheckpoint struct {
	NumCells int                    `json:"num_cells"`
	Done     string                 `json:"done"`
	Cells    map[string]cellRecord  `json:"cells"`
	Merged   map[string]stats.State `json:"merged,omitempty"`
}

// checkpointDoc is the whole checkpoint file: one entry per grid the
// campaign has started, keyed by grid fingerprint. A campaign is a
// sequence of grids, so a resumed run skips the complete ones and
// back-fills the partial one.
type checkpointDoc struct {
	Version int                        `json:"version"`
	Grids   map[string]*gridCheckpoint `json:"grids"`
}

// Checkpoint persists campaign progress: an in-memory document of every
// grid the campaign has finished or begun, and the file a snapshot of it is
// written to. A snapshot streams the whole document to a temp file, fsyncs
// it and renames it into place, so the file on disk is always a complete,
// parseable snapshot — a coordinator killed mid-write leaves the previous
// one intact. The file is json.Marshal of the document, byte for byte, but
// a snapshot does not marshal the document whole: it encodes grid by grid
// through one buffered writer, so what a snapshot allocates is one grid's
// encoding, not twice the file's.
//
// put may be called from any goroutine; write from one at a time — the
// coordinator's committer.
type Checkpoint struct {
	path string
	mu   sync.Mutex
	doc  checkpointDoc
	// dirty: the document has changed since the file was written.
	dirty bool
	// disk is what the file holds: each grid's done bitmap as of the last
	// snapshot written (or the load), for covers. size is its length.
	disk map[string][]byte
	size int64
	bw   *bufio.Writer // the one buffered writer every snapshot streams through
}

// NewCheckpoint starts a fresh checkpoint at path. Nothing is written
// until the first snapshot.
func NewCheckpoint(path string) *Checkpoint {
	return &Checkpoint{path: path, doc: checkpointDoc{
		Version: checkpointVersion,
		Grids:   map[string]*gridCheckpoint{},
	}}
}

// LoadCheckpoint reads an existing checkpoint for resumption. A missing,
// unparseable or wrong-version file is a loud error: resuming from a
// corrupt checkpoint silently would discard or duplicate work.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dist: resume: %w", err)
	}
	ck := &Checkpoint{path: path, size: int64(len(data))}
	if err := json.Unmarshal(data, &ck.doc); err != nil {
		return nil, fmt.Errorf("dist: resume %s: corrupt checkpoint: %w", path, err)
	}
	if ck.doc.Version != checkpointVersion {
		return nil, fmt.Errorf("dist: resume %s: checkpoint version %d, want %d",
			path, ck.doc.Version, checkpointVersion)
	}
	if ck.doc.Grids == nil {
		ck.doc.Grids = map[string]*gridCheckpoint{}
	}
	for fp, g := range ck.doc.Grids {
		// A null grid entry or negative cell count parses as valid JSON but
		// would panic in restore; reject it at load time with the rest of
		// the corruption classes.
		if g == nil || g.NumCells < 0 {
			return nil, fmt.Errorf("dist: resume %s: grid %s: corrupt grid record", path, fp)
		}
	}
	ck.disk = bitmaps(ck.doc.Grids)
	return ck, nil
}

// OpenPersistence opens a campaign's crash-recovery pair: the checkpoint
// at path and the write-ahead journal beside it (path + ".wal"), for
// Options.Checkpoint and Options.WAL. Without resume both start fresh,
// discarding what the files hold. With resume the checkpoint is loaded and
// the journal's records decoded for replay; a checkpoint file that does
// not exist yet is a fresh one, not an error — a coordinator that crashed
// before its first snapshot left everything it had in the journal. The
// caller closes the WAL when the campaign is over, after the coordinator.
func OpenPersistence(path string, resume bool) (*Checkpoint, *WAL, error) {
	ck, open := NewCheckpoint(path), CreateWAL
	if resume {
		open = OpenWAL
		if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
			if ck, err = LoadCheckpoint(path); err != nil {
				return nil, nil, err
			}
		}
	}
	wal, err := open(path + ".wal")
	if err != nil {
		return nil, nil, err
	}
	return ck, wal, nil
}

// Path returns the checkpoint's file path.
func (ck *Checkpoint) Path() string { return ck.path }

// numGrids returns how many grids the checkpoint holds.
func (ck *Checkpoint) numGrids() int {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return len(ck.doc.Grids)
}

// restore returns the completed cells recorded for grid fp, validating
// internal consistency: the bitmap, cell-record keys and declared cell
// count must agree, and every index must be in range. numCells is the
// resuming campaign's cell count for the same fingerprint; a mismatch
// means the checkpoint came from a different campaign definition.
func (ck *Checkpoint) restore(fp string, numCells int) (done []bool, cells []cellRecord, err error) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	g, ok := ck.doc.Grids[fp]
	if !ok {
		return nil, nil, nil
	}
	if g.NumCells != numCells {
		return nil, nil, fmt.Errorf("dist: resume %s: grid %s has %d cells, checkpoint recorded %d",
			ck.path, fp, numCells, g.NumCells)
	}
	bitmap, err := base64.StdEncoding.DecodeString(g.Done)
	if err != nil || len(bitmap) != (numCells+7)/8 {
		return nil, nil, fmt.Errorf("dist: resume %s: grid %s: corrupt done bitmap", ck.path, fp)
	}
	done = make([]bool, numCells)
	cells = make([]cellRecord, numCells)
	marked := 0
	for i := range done {
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			done[i] = true
			marked++
		}
	}
	if marked != len(g.Cells) {
		return nil, nil, fmt.Errorf("dist: resume %s: grid %s: bitmap marks %d cells but %d records present",
			ck.path, fp, marked, len(g.Cells))
	}
	for key, rec := range g.Cells {
		i, err := parseCellIndex(key, numCells)
		if err != nil {
			return nil, nil, fmt.Errorf("dist: resume %s: grid %s: %w", ck.path, fp, err)
		}
		if !done[i] {
			return nil, nil, fmt.Errorf("dist: resume %s: grid %s: cell %d recorded but not marked done",
				ck.path, fp, i)
		}
		if len(rec.Payload) == 0 {
			return nil, nil, fmt.Errorf("dist: resume %s: grid %s: cell %d has empty payload",
				ck.path, fp, i)
		}
		cells[i] = rec
	}
	return done, cells, nil
}

// parseCellIndex accepts only the canonical decimal form: "01" or "1x"
// would alias another key's index, letting a hostile document mark a cell
// done while smuggling its record under a duplicate.
func parseCellIndex(key string, numCells int) (int, error) {
	i, err := strconv.Atoi(key)
	if err != nil || i < 0 || i >= numCells || strconv.Itoa(i) != key {
		return 0, fmt.Errorf("bad cell index %q", key)
	}
	return i, nil
}

// put records grid fp's current progress in the document; the file is
// untouched until the next write. The merged summary is recomputed from
// scratch in cell-index order, so its value is deterministic regardless of
// the order cells actually arrived in.
func (ck *Checkpoint) put(fp string, numCells int, done []bool, cells []cellRecord) {
	bitmap := make([]byte, (numCells+7)/8)
	records := make(map[string]cellRecord)
	merged := map[string]*stats.Welford{}
	for i, ok := range done {
		if !ok {
			continue
		}
		bitmap[i/8] |= 1 << (i % 8)
		records[strconv.Itoa(i)] = cells[i]
		for name, st := range cells[i].Stats {
			w, ok := merged[name]
			if !ok {
				w = &stats.Welford{}
				merged[name] = w
			}
			w.Merge(stats.FromState(st))
		}
	}
	g := &gridCheckpoint{
		NumCells: numCells,
		Done:     base64.StdEncoding.EncodeToString(bitmap),
		Cells:    records,
	}
	if len(merged) > 0 {
		g.Merged = map[string]stats.State{}
		for name, w := range merged {
			g.Merged[name] = w.State()
		}
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.doc.Grids[fp] = g
	ck.dirty = true
}

// write snapshots the document: streams it to a sibling temp file, fsyncs
// and renames it over the checkpoint path. A document the file already
// holds is not written again. The lock is not held while the file is
// written — a grid's record is never modified once it is in the document,
// only replaced — so put and restore do not wait for the disk.
func (ck *Checkpoint) write() error {
	ck.mu.Lock()
	if !ck.dirty {
		ck.mu.Unlock()
		return nil
	}
	doc := checkpointDoc{Version: ck.doc.Version, Grids: maps.Clone(ck.doc.Grids)}
	ck.dirty = false
	ck.mu.Unlock()

	size, err := ck.writeFile(&doc)
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if err != nil {
		ck.dirty = true
		return fmt.Errorf("dist: checkpoint: %w", err)
	}
	ck.disk, ck.size = bitmaps(doc.Grids), size
	return nil
}

// writeFile replaces the checkpoint file with doc and returns its length.
func (ck *Checkpoint) writeFile(doc *checkpointDoc) (size int64, err error) {
	tmp, err := os.CreateTemp(filepath.Dir(ck.path), filepath.Base(ck.path)+".tmp*")
	if err != nil {
		return 0, err
	}
	if ck.bw == nil {
		ck.bw = bufio.NewWriterSize(tmp, 64<<10)
	} else {
		ck.bw.Reset(tmp)
	}
	err = encodeDoc(ck.bw, doc)
	if err == nil {
		err = ck.bw.Flush()
	}
	if err == nil {
		size, err = tmp.Seek(0, io.SeekCurrent)
	}
	if err == nil {
		// The journal drops what this file holds as soon as it is in place.
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), ck.path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	return size, nil
}

// covers reports whether the checkpoint file on disk holds cell of grid
// fp: the journal may drop such a record and nothing else.
func (ck *Checkpoint) covers(fp string, cell int) bool {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	bitmap := ck.disk[fp]
	return cell >= 0 && cell/8 < len(bitmap) && bitmap[cell/8]&(1<<(cell%8)) != 0
}

// Size is the length in bytes of the checkpoint file as last written or
// loaded; 0 before the first snapshot.
func (ck *Checkpoint) Size() int64 {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return ck.size
}

// bitmaps decodes every grid's done bitmap. A grid whose bitmap does not
// decode holds nothing anyone may rely on (restore rejects it loudly).
func bitmaps(grids map[string]*gridCheckpoint) map[string][]byte {
	out := make(map[string][]byte, len(grids))
	for fp, g := range grids {
		if b, err := base64.StdEncoding.DecodeString(g.Done); err == nil {
			out[fp] = b
		}
	}
	return out
}

// encodeDoc writes exactly json.Marshal(doc): the header, then the grids in
// the sorted-key order encoding/json gives a map, each key escaped as it
// escapes one.
func encodeDoc(w *bufio.Writer, doc *checkpointDoc) error {
	fmt.Fprintf(w, `{"version":%d,"grids":`, doc.Version)
	if doc.Grids == nil {
		w.WriteString("null")
	} else {
		fps := make([]string, 0, len(doc.Grids))
		for fp := range doc.Grids {
			fps = append(fps, fp)
		}
		slices.Sort(fps)
		w.WriteByte('{')
		for i, fp := range fps {
			if i > 0 {
				w.WriteByte(',')
			}
			key, err := json.Marshal(fp)
			if err != nil {
				return err
			}
			w.Write(key)
			w.WriteByte(':')
			grid, err := json.Marshal(doc.Grids[fp])
			if err != nil {
				return err
			}
			w.Write(grid)
		}
		w.WriteByte('}')
	}
	// A bufio.Writer keeps its first error and returns it from Flush.
	return w.WriteByte('}')
}
