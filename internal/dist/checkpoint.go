package dist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// checkpointVersion is the on-disk format version, stated on the file's
// first line; a mismatch is a hard error rather than a guess at migration.
const checkpointVersion = 2

// Checkpoint persists campaign progress: every completed cell of every grid
// the campaign has finished or begun, and the file a snapshot of them is
// written to. The file is the journal's own format, compacted: a version
// line, then one WAL frame per completed cell, grids in fingerprint order
// and each grid's cells in index order. A snapshot streams it to a temp file
// through one reused buffered writer, fsyncs it and renames it into place,
// so the file on disk is always a complete snapshot — a coordinator killed
// mid-write leaves the previous one intact.
//
// put may be called from any goroutine; write from one at a time — the
// coordinator's committer.
type Checkpoint struct {
	path string
	mu   sync.Mutex
	// grids holds each grid's completed cells in index order. A grid's
	// slice is replaced by put, never modified.
	grids map[string][]walRecord
	// dirty: grids has changed since the file was written.
	dirty bool
	// disk is what the file holds: each grid's done cells as of the last
	// snapshot written (or the load), for covers. size is its length.
	disk map[string]map[int]bool
	size int64
	bw   *bufio.Writer // the one buffered writer every snapshot streams through
}

// NewCheckpoint starts a fresh checkpoint at path. Nothing is written
// until the first snapshot.
func NewCheckpoint(path string) *Checkpoint {
	return &Checkpoint{path: path, grids: map[string][]walRecord{}}
}

// LoadCheckpoint reads an existing checkpoint for resumption. A missing,
// unparseable or wrong-version file is a loud error: resuming from a
// corrupt checkpoint silently would discard or duplicate work. A torn last
// frame, which the journal trims as a crash point, is corruption here: a
// snapshot is renamed into place only once it is complete.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dist: resume: %w", err)
	}
	line, body, _ := bytes.Cut(data, []byte("\n"))
	var head struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(line, &head); err != nil {
		return nil, fmt.Errorf("dist: resume %s: corrupt checkpoint: version line: %w", path, err)
	}
	if head.Version != checkpointVersion {
		return nil, fmt.Errorf("dist: resume %s: checkpoint version %d, want %d",
			path, head.Version, checkpointVersion)
	}
	recs, valid, err := decodeWAL(body)
	if err == nil && valid < len(body) {
		err = fmt.Errorf("truncated frame at offset %d", valid)
	}
	if err != nil {
		return nil, fmt.Errorf("dist: resume %s: corrupt checkpoint: %w", path, err)
	}
	ck := NewCheckpoint(path)
	for _, r := range recs {
		ck.grids[r.Grid] = append(ck.grids[r.Grid], r)
	}
	ck.disk, ck.size = doneSets(ck.grids), int64(len(data))
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
	return len(ck.grids)
}

// restore returns the completed cells recorded for grid fp, nil if it holds
// none. numCells is the resuming campaign's cell count for the same
// fingerprint. A record whose cell is out of range, that repeats a cell or
// that carries no payload is corruption: nothing of the grid is restored.
func (ck *Checkpoint) restore(fp string, numCells int) (done []bool, cells []walRecord, err error) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	recs, ok := ck.grids[fp]
	if !ok {
		return nil, nil, nil
	}
	done = make([]bool, numCells)
	cells = make([]walRecord, numCells)
	for _, r := range recs {
		switch {
		case r.Cell < 0 || r.Cell >= numCells:
			err = fmt.Errorf("cell %d out of range of %d cells", r.Cell, numCells)
		case done[r.Cell]:
			err = fmt.Errorf("cell %d recorded twice", r.Cell)
		case len(r.Payload) == 0:
			err = fmt.Errorf("cell %d has empty payload", r.Cell)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("dist: resume %s: grid %s: %w", ck.path, fp, err)
		}
		done[r.Cell], cells[r.Cell] = true, r
	}
	return done, cells, nil
}

// put records grid fp's done cells, in index order; the file is untouched
// until the next write.
func (ck *Checkpoint) put(fp string, done []bool, cells []walRecord) {
	var recs []walRecord
	for i, ok := range done {
		if ok {
			r := cells[i]
			r.Grid, r.Cell = fp, i
			recs = append(recs, r)
		}
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.grids[fp] = recs
	ck.dirty = true
}

// write snapshots the checkpoint: streams it to a sibling temp file, fsyncs
// and renames it over the checkpoint path. What the file already holds is
// not written again. The lock is not held while the file is written — a
// grid's records are never modified once put, only replaced — so put and
// restore do not wait for the disk.
func (ck *Checkpoint) write() error {
	ck.mu.Lock()
	if !ck.dirty {
		ck.mu.Unlock()
		return nil
	}
	grids := maps.Clone(ck.grids)
	ck.dirty = false
	ck.mu.Unlock()

	size, err := ck.writeFile(grids)
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if err != nil {
		ck.dirty = true
		return fmt.Errorf("dist: checkpoint: %w", err)
	}
	ck.disk, ck.size = doneSets(grids), size
	return nil
}

// writeFile replaces the checkpoint file with grids and returns its length.
func (ck *Checkpoint) writeFile(grids map[string][]walRecord) (size int64, err error) {
	tmp, err := os.CreateTemp(filepath.Dir(ck.path), filepath.Base(ck.path)+".tmp*")
	if err != nil {
		return 0, err
	}
	if ck.bw == nil {
		ck.bw = bufio.NewWriterSize(tmp, 64<<10)
	} else {
		ck.bw.Reset(tmp)
	}
	fmt.Fprintf(ck.bw, "{\"version\":%d}\n", checkpointVersion)
frames:
	for _, fp := range slices.Sorted(maps.Keys(grids)) {
		for _, r := range grids[fp] {
			if err = encodeFrame(ck.bw, r); err != nil {
				break frames
			}
		}
	}
	if err == nil {
		// A bufio.Writer keeps its first error and returns it from Flush.
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
	return ck.disk[fp][cell]
}

// Size is the length in bytes of the checkpoint file as last written or
// loaded; 0 before the first snapshot.
func (ck *Checkpoint) Size() int64 {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return ck.size
}

// doneSets indexes the cells each grid's records hold.
func doneSets(grids map[string][]walRecord) map[string]map[int]bool {
	sets := make(map[string]map[int]bool, len(grids))
	for fp, recs := range grids {
		set := make(map[int]bool, len(recs))
		for _, r := range recs {
			set[r.Cell] = true
		}
		sets[fp] = set
	}
	return sets
}
