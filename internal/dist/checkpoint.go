package dist

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"slices"
	"sync"
)

// checkpointVersion is the on-disk format version, stated on the file's
// first line; a mismatch is a hard error rather than a guess at migration.
// Version 3 states the file's frame count beside it.
const checkpointVersion = 3

// Checkpoint persists campaign progress: which cells of every grid the
// campaign has finished or begun are done, and the file a snapshot of them
// is written to. The file is the journal's own format, compacted: a version
// line that also states how many frames follow, then one WAL frame per done
// cell, grids in fingerprint order and each grid's cells in index order.
//
// No cell's record is kept in memory, only where its frame lies: a snapshot
// is a merge of the file as it stands and the journal, each done cell's
// frame copied byte for byte from whichever holds it, streamed to a temp
// file through one reused buffered writer, fsync'd and renamed into place —
// the file on disk is always a complete snapshot, and a coordinator killed
// mid-write leaves the previous one intact.
//
// put may be called from any goroutine; write from one at a time — the
// coordinator's committer.
type Checkpoint struct {
	path string
	mu   sync.Mutex
	// grids holds each grid's done cells in index order. A grid's slice is
	// replaced by put, never modified.
	grids map[string][]int
	// dirty: grids has changed since the file was written.
	dirty bool
	// disk is where the file holds each grid's cells: its frames, in cell
	// order, as last written or loaded; replaced by a write, never modified.
	// size is the file's length, loaded how many grids it held when it was
	// loaded.
	disk   map[string][]frame
	size   int64
	loaded int
	cp     frameCopier // the snapshots'
}

// NewCheckpoint starts a fresh checkpoint at path. Nothing is written
// until the first snapshot.
func NewCheckpoint(path string) *Checkpoint {
	return &Checkpoint{path: path, grids: map[string][]int{}}
}

// LoadCheckpoint reads an existing checkpoint for resumption. A missing,
// unparseable or wrong-version file is a loud error: resuming from a
// corrupt checkpoint silently would discard or duplicate work. So is a file
// with a torn last frame, which the journal trims as a crash point, or one
// cut on a frame boundary, which holds fewer frames than its version line
// states: a snapshot is renamed into place only once it is complete. Every
// record is decoded to be checked; what is kept is where each lies.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dist: resume: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64<<10)
	line, err := r.ReadBytes('\n')
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("dist: resume: %w", err)
	}
	var head struct {
		Version int `json:"version"`
		Cells   int `json:"cells"`
	}
	if err := json.Unmarshal(line, &head); err != nil {
		return nil, fmt.Errorf("dist: resume %s: corrupt checkpoint: version line: %w", path, err)
	}
	if head.Version != checkpointVersion {
		return nil, fmt.Errorf("dist: resume %s: checkpoint version %d, want %d",
			path, head.Version, checkpointVersion)
	}
	frames, valid, err := scanFrames(r, int64(len(line)))
	var fi os.FileInfo
	if err == nil {
		fi, err = f.Stat()
	}
	if err == nil {
		if valid < fi.Size() {
			err = fmt.Errorf("truncated frame at offset %d", valid)
		} else if len(frames) != head.Cells {
			err = fmt.Errorf("%d frames, the version line states %d", len(frames), head.Cells)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("dist: resume %s: corrupt checkpoint: %w", path, err)
	}
	ck := NewCheckpoint(path)
	ck.disk = map[string][]frame{}
	for _, fr := range frames {
		ck.disk[fr.Grid] = append(ck.disk[fr.Grid], fr)
	}
	for fp, on := range ck.disk {
		slices.SortStableFunc(on, func(a, b frame) int { return cmp.Compare(a.Cell, b.Cell) })
		cells := make([]int, len(on))
		for i, fr := range on {
			cells[i] = fr.Cell
		}
		ck.grids[fp] = cells
	}
	ck.size, ck.loaded = valid, len(ck.disk)
	return ck, nil
}

// OpenPersistence opens a campaign's crash-recovery pair: the checkpoint
// at path and the write-ahead journal beside it (path + ".wal"), for
// Options.Checkpoint and Options.WAL. Without resume both start fresh,
// discarding what the files hold. With resume the checkpoint is loaded and
// the journal's records indexed for replay; a checkpoint file that does
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

// restore reads back the cells the file holds of grid fp, nil if it holds
// none. numCells is the resuming campaign's cell count for the same
// fingerprint. A record whose cell is out of range, that repeats a cell or
// that carries no payload is corruption: nothing of the grid is restored.
func (ck *Checkpoint) restore(fp string, numCells int) (done []bool, cells []walRecord, err error) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	on, ok := ck.disk[fp]
	if !ok {
		return nil, nil, nil
	}
	// The file and its index change together, under ck.mu.
	f, err := os.Open(ck.path)
	if err != nil {
		return nil, nil, fmt.Errorf("dist: resume: %w", err)
	}
	defer f.Close()
	recs, err := readFrames(f, on)
	if err != nil {
		return nil, nil, fmt.Errorf("dist: resume %s: grid %s: %w", ck.path, fp, err)
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

// put records grid fp's done cells; the file is untouched until the next
// write.
func (ck *Checkpoint) put(fp string, done []bool) {
	var cells []int
	for i, ok := range done {
		if ok {
			cells = append(cells, i)
		}
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.grids[fp] = cells
	ck.dirty = true
}

// write snapshots the checkpoint: every done cell's frame, from the file
// when it holds the cell and else from the journal, copied to a sibling
// temp file, fsync'd and renamed over the checkpoint path. A done cell in
// neither — its journal write failed — is left out, and runs again on
// resume. The lock is not held while the file is written — a grid's cells
// are never modified once put, only replaced — so put and restore do not
// wait for the disk. The journal is held still while its frames are copied.
func (ck *Checkpoint) write(wal *WAL) error {
	ck.mu.Lock()
	if !ck.dirty {
		ck.mu.Unlock()
		return nil
	}
	grids, disk := maps.Clone(ck.grids), ck.disk
	ck.dirty = false
	ck.mu.Unlock()

	wal.mu.Lock()
	defer wal.mu.Unlock()
	tmp, index, err := ck.writeTemp(grids, disk, wal)
	if err == nil {
		err = tmp.Close()
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if err == nil {
		err = os.Rename(tmp.Name(), ck.path)
	}
	if err != nil {
		if tmp != nil {
			os.Remove(tmp.Name())
		}
		ck.dirty = true
		return fmt.Errorf("dist: checkpoint: %w", err)
	}
	ck.disk, ck.size = index, ck.cp.off
	return nil
}

// cellKey names one cell of one grid.
type cellKey struct {
	grid string
	cell int
}

// writeTemp merges the file's frames and the journal's into a new
// snapshot of grids, not yet in place, and returns it with its index.
// Called with wal.mu held.
func (ck *Checkpoint) writeTemp(grids map[string][]int, disk map[string][]frame, wal *WAL) (*os.File, map[string][]frame, error) {
	journal := make(map[cellKey]frame, len(wal.frames))
	for _, fr := range wal.frames {
		if _, dup := journal[cellKey{fr.Grid, fr.Cell}]; !dup {
			journal[cellKey{fr.Grid, fr.Cell}] = fr
		}
	}
	var old *os.File
	if len(disk) > 0 {
		var err error
		if old, err = os.Open(ck.path); err != nil {
			return nil, nil, err
		}
		defer old.Close()
	}
	// Each done cell's frame and the file it is copied from, in file order.
	type piece struct {
		src io.ReaderAt
		fr  frame
	}
	var pieces []piece
	fps := slices.Sorted(maps.Keys(grids))
	for _, fp := range fps {
		on := disk[fp]
		for _, cell := range grids[fp] {
			for len(on) > 0 && on[0].Cell < cell {
				on = on[1:]
			}
			var p piece
			if len(on) > 0 && on[0].Cell == cell {
				p, on = piece{old, on[0]}, on[1:]
			} else if fr, ok := journal[cellKey{fp, cell}]; ok {
				p = piece{wal.f, fr}
			} else {
				continue // in neither file: its journal write failed
			}
			p.fr.Grid = fp // one string per grid in the index
			pieces = append(pieces, p)
		}
	}
	index := make(map[string][]frame, len(fps))
	tmp, err := ck.cp.writeTemp(ck.path, func() error {
		n, _ := fmt.Fprintf(ck.cp.bw, "{\"version\":%d,\"cells\":%d}\n", checkpointVersion, len(pieces))
		ck.cp.off = int64(n)
		for _, p := range pieces {
			fr, err := ck.cp.copy(p.src, p.fr)
			if err != nil {
				return err
			}
			index[fr.Grid] = append(index[fr.Grid], fr)
		}
		return nil
	})
	return tmp, index, err
}

// covers reports whether the checkpoint file on disk holds cell of grid
// fp: the journal may drop such a record and nothing else.
func (ck *Checkpoint) covers(fp string, cell int) bool {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	_, ok := slices.BinarySearchFunc(ck.disk[fp], cell, func(fr frame, cell int) int { return cmp.Compare(fr.Cell, cell) })
	return ok
}

// Size is the length in bytes of the checkpoint file as last written or
// loaded; 0 before the first snapshot.
func (ck *Checkpoint) Size() int64 {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return ck.size
}
