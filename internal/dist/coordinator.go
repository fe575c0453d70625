package dist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"ripple/internal/stats"
)

// Options tunes a Coordinator. The zero value works: nothing is persisted
// and nothing is logged.
type Options struct {
	// Checkpoint and WAL, set together or not at all (OpenPersistence opens
	// the pair), make the campaign resumable. The WAL journals every
	// delivered cell (fsync'd, group commit) before the coordinator counts
	// it: a coordinator crash loses nothing that counted. The Checkpoint is
	// the journal's compaction: a snapshot is written when the journal has
	// outgrown the last one (snapshotFloor and a doubling rule) and once
	// more in Close, and each snapshot drops from the journal what it holds.
	// RunGrid restores a grid from the checkpoint and replays the journal on
	// top — a grid the campaign finished before included. Close the
	// coordinator before the WAL.
	Checkpoint *Checkpoint
	WAL        *WAL
	// Logf reports worker churn (connects, losses, raced cells); nil
	// discards.
	Logf func(format string, args ...any)
}

// crashAfterEnv is the crash hook of the tests and CI: when set to a
// positive integer the coordinator hard-exits the process (killExitCode, no
// snapshot, no deferred cleanup) once that many cells have counted, so the
// cells counted since the last snapshot survive only in the WAL. The count
// is per process, and the variable is inherited by supervised restarts —
// each incarnation crashes again after that many more cells, exercising
// repeated crash/replay cycles until the grid completes.
const crashAfterEnv = "RIPPLE_DIST_CRASH_AFTER"

// killExitCode is the exit code of the crash hook above.
const killExitCode = 42

// A granted cell has one deadline: deadlineFactor × the grid's running
// average of grant-to-delivery times, no less than deadlineFloor (so fast
// grids don't thrash) — or firstCellPatience while no cell of the grid has
// completed and there is nothing to average.
const (
	deadlineFactor    = 8
	deadlineFloor     = 100 * time.Millisecond
	firstCellPatience = 2 * time.Minute
)

// snapshotFloor is the journal size below which no snapshot is taken
// before Close: a campaign this small resumes from its journal alone. Past
// it a snapshot is due whenever the journal is at least as long as the last
// snapshot written, so each snapshot is about twice the one before and a
// campaign writes O(its final size) bytes of snapshots in all.
const snapshotFloor = 1 << 20

// ErrClosed reports a coordinator shut down before the grid finished.
var ErrClosed = errors.New("dist: coordinator closed")

// Coordinator shards grids across worker connections. A campaign is a
// sequence of grids: RunGrid is called once per grid, in order, while
// Serve runs per worker connection; workers announce which grid they
// have reached (by fingerprint) and the coordinator grants them cells of
// the current grid, one at a time, holding early arrivals until it catches
// up.
//
// A coordinator that persists owns one more goroutine, the committer,
// which alone touches the two files: connection goroutines queue what
// workers deliver and answer them at once; the committer journals whatever
// has queued with one write and one fsync and only then marks those cells
// done, so a cell that counts — in Progress, towards its grid's
// completion, in a snapshot — is already durable. It also writes the
// snapshots, each followed by the journal's compaction. Close stops it.
//
// The coordinator holds in memory the payloads of the grid in flight and
// nothing of a finished one: a finished cell lives in the files, or — when
// nothing persists — nowhere, and a grid the campaign asks for again is
// restored from the files or granted again; its results are deterministic.
type Coordinator struct {
	opt Options
	// firstCellPatience and deadlineFloor; fields so that the package's
	// tests can shorten them before RunGrid.
	patience, floor time.Duration

	mu       sync.Mutex
	cond     *sync.Cond
	finished []string // the grids finished, by fingerprint, in order
	cur      *gridRun // grid executing, or abandoned at Close
	closed   bool
	failure  error // first fatal worker error, poisons the campaign

	// The committer's inbox, under mu: deliveries awaiting the journal.
	// committed is closed when the committer has exited; nil without one.
	queue      []delivery
	commitCond *sync.Cond
	committed  chan struct{}

	crashAfter int // crashAfterEnv hook; 0 = disabled
	recorded   int // cells recorded this process (not restored ones)
}

// delivery is one cell a worker delivered, not yet marked done.
type delivery struct {
	gr *gridRun
	m  *Message
}

// gridRun is the in-flight state of one grid.
type gridRun struct {
	fp          string
	numCells    int
	runsPerCell int
	queue       []int          // cells awaiting a grant
	grants      map[int]*grant // cells out with a worker, by cell
	done        []bool
	pending     []bool // delivered and queued for the journal, not yet done
	doneCount   int
	cells       []walRecord // the record of each completed cell, until RunGrid returns
	progress    func(done, total int)
	// cellEWMA is the running average of grant-to-delivery times the
	// deadline is derived from; 0 until a cell has been delivered.
	cellEWMA time.Duration
	watchdog *time.Timer // armed for the earliest deadline among grants
	races    int         // grants whose deadline passed
	// journalled is how many distinct cells of the grid the journal holds
	// that no checkpoint does: the cells a resume would replay from it.
	journalled int
}

// grant is one cell out with one connection. It ends when the cell is
// delivered, by anyone, when the connection is lost, or when the cell —
// back on the queue since its deadline passed — is granted again.
type grant struct {
	owner *Conn
	at    time.Time
	raced bool // past the deadline, cell back on the queue
}

// GridOutput is a completed grid: one raw payload per cell, exactly as
// the workers sent them, plus the per-metric Welford states merged in
// cell-index order (deterministic regardless of delivery order).
type GridOutput struct {
	Payloads [][]byte
	Stats    map[string]stats.State
}

// NewCoordinator creates a coordinator ready to Serve connections and
// RunGrid campaigns. Half a persistence pair is a programming error.
func NewCoordinator(opt Options) *Coordinator {
	if (opt.Checkpoint == nil) != (opt.WAL == nil) {
		panic("dist: NewCoordinator: Options.Checkpoint and Options.WAL are set together or not at all; OpenPersistence opens the pair")
	}
	c := &Coordinator{opt: opt, patience: firstCellPatience, floor: deadlineFloor}
	c.cond = sync.NewCond(&c.mu)
	c.commitCond = sync.NewCond(&c.mu)
	if v := os.Getenv(crashAfterEnv); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			c.crashAfter = n
		}
	}
	if opt.WAL != nil {
		c.committed = make(chan struct{})
		go c.commitLoop()
	}
	return c
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opt.Logf != nil {
		c.opt.Logf(format, args...)
	}
}

// GridSpec identifies one grid of the campaign sequence.
type GridSpec struct {
	Fingerprint string
	NumCells    int
	RunsPerCell int
	// Progress, if set, is called after every completed cell with counts
	// in runs (cells × runs per cell), matching campaign.Grid.Progress.
	Progress func(done, total int)
}

// RunGrid executes one grid across the connected workers and returns its
// output. Grids must be run sequentially, in the same order the workers
// traverse them. Cells already recorded in the checkpoint or the journal
// are restored, not re-executed; if every cell is restored no worker is
// needed at all.
func (c *Coordinator) RunGrid(spec GridSpec) (*GridOutput, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, c.closeErrLocked()
	}
	if c.cur != nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("dist: RunGrid(%s) while %s still running", spec.Fingerprint, c.cur.fp)
	}
	gr := &gridRun{
		fp:          spec.Fingerprint,
		numCells:    spec.NumCells,
		runsPerCell: spec.RunsPerCell,
		grants:      map[int]*grant{},
		done:        make([]bool, spec.NumCells),
		pending:     make([]bool, spec.NumCells),
		cells:       make([]walRecord, spec.NumCells),
		progress:    spec.Progress,
	}
	if c.opt.Checkpoint != nil {
		if err := c.restore(gr); err != nil {
			c.mu.Unlock()
			return nil, err
		}
	}
	for i := 0; i < spec.NumCells; i++ {
		if !gr.done[i] {
			gr.queue = append(gr.queue, i)
		}
	}
	// watchLocked arms it at every grant; a fire before that finds nothing.
	gr.watchdog = time.AfterFunc(c.patience, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.cur == gr && !c.closed {
			c.watchLocked(gr)
		}
	})
	c.cur = gr
	c.cond.Broadcast() // wake ready handlers waiting for this grid

	for gr.doneCount < gr.numCells && !c.closed {
		c.cond.Wait()
	}
	gr.watchdog.Stop()
	if c.closed {
		// c.cur stays: the committer's last snapshot takes the abandoned
		// grid's cells from it, and a closed coordinator runs no other.
		err := c.closeErrLocked()
		c.mu.Unlock()
		return nil, err
	}
	if gr.races > 0 {
		c.logf("dist: grid %s: %d cells raced", gr.fp, gr.races)
	}
	out := c.finalizeLocked(gr)
	c.cur = nil
	c.cond.Broadcast() // wake workers ready for the next grid
	c.mu.Unlock()
	return out, nil
}

// restore takes what the files hold of gr's grid: the checkpoint's cells,
// and the journal's on top — cells delivered after the last snapshot. The
// journal may hold cells the checkpoint holds too (a crash between the
// snapshot's rename and the journal's compaction): a cell already done is
// not taken again. The journal is read first: a snapshot taken between the
// two reads drops from the journal only what it put in the checkpoint file,
// where the second read finds it.
func (c *Coordinator) restore(gr *gridRun) error {
	ck, fp := c.opt.Checkpoint, gr.fp
	journal, err := c.opt.WAL.records(fp)
	if err != nil {
		return err
	}
	done, cells, err := ck.restore(fp, gr.numCells)
	if err != nil {
		return err
	}
	for i, ok := range done {
		if ok {
			gr.done[i], gr.cells[i] = true, cells[i]
			gr.doneCount++
		}
	}
	if gr.doneCount > 0 {
		c.logf("dist: grid %s: restored %d/%d cells from checkpoint", fp, gr.doneCount, gr.numCells)
	}
	for _, r := range journal {
		if r.Cell < 0 || r.Cell >= gr.numCells || gr.done[r.Cell] || len(r.Payload) == 0 {
			continue
		}
		gr.done[r.Cell], gr.cells[r.Cell] = true, r
		gr.doneCount++
		gr.journalled++
	}
	if gr.journalled > 0 {
		c.logf("dist: grid %s: replayed %d cells from WAL", fp, gr.journalled)
	}
	if gr.doneCount == 0 && ck.loaded > 0 {
		// Either the campaign had not reached this grid when the file was
		// written, or the file belongs to another campaign (other flags,
		// another version): say so rather than rerun silently.
		c.logf("dist: grid %s: not among the %d grids of checkpoint %s, running all %d cells",
			fp, ck.loaded, ck.Path(), gr.numCells)
	}
	return nil
}

func (c *Coordinator) closeErrLocked() error {
	if c.failure != nil {
		return c.failure
	}
	return ErrClosed
}

// finalizeLocked assembles a completed grid's output, records that the grid
// finished, and enters its done cells in the checkpoint — in memory: every
// cell of it is already in the journal, and the file catches up at the next
// snapshot.
func (c *Coordinator) finalizeLocked(gr *gridRun) *GridOutput {
	out := &GridOutput{Payloads: make([][]byte, gr.numCells)}
	merged := map[string]*stats.Welford{}
	for i := range gr.cells {
		out.Payloads[i] = gr.cells[i].Payload
		for name, st := range gr.cells[i].Stats {
			w, ok := merged[name]
			if !ok {
				w = &stats.Welford{}
				merged[name] = w
			}
			w.Merge(stats.FromState(st))
		}
	}
	if len(merged) > 0 {
		out.Stats = map[string]stats.State{}
		for name, w := range merged {
			out.Stats[name] = w.State()
		}
	}
	c.finished = append(c.finished, gr.fp)
	if ck := c.opt.Checkpoint; ck != nil {
		ck.put(gr.fp, gr.done)
	}
	return out
}

// commitLoop is the committer: the one goroutine that writes the journal
// and the checkpoint. Each round takes everything record has queued since
// the last — the batch grows with the number of workers delivering while
// an fsync is in flight, the fsync count does not — journals it, marks it
// done, and takes a snapshot when the journal has outgrown the last. It
// exits once the coordinator is closed and the queue is empty, after a last
// snapshot.
func (c *Coordinator) commitLoop() {
	defer close(c.committed)
	var batch []delivery
	var recs []walRecord
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for len(c.queue) == 0 && !c.closed {
			c.commitCond.Wait()
		}
		if len(c.queue) == 0 {
			c.snapshotLocked()
			return
		}
		batch, c.queue = c.queue, batch[:0]
		c.mu.Unlock()
		recs = recs[:0]
		for _, d := range batch {
			recs = append(recs, walRecord{Grid: d.m.Grid, Cell: d.m.Cell, Payload: d.m.Payload, Stats: d.m.Stats})
		}
		// A journal that cannot be written is logged, not fatal: the
		// campaign's in-memory state is intact, only resumability is
		// degraded.
		err := c.opt.WAL.appendBatch(recs)
		if err != nil {
			c.logf("dist: %v", err)
		}
		clear(recs) // no payload outlives its batch here
		c.mu.Lock()
		for _, d := range batch {
			// record queues a cell once and no more after it is done, so
			// each delivery is a cell the journal did not hold.
			if err == nil && d.gr == c.cur {
				d.gr.journalled++
			}
		}
		for i, d := range batch {
			c.markDoneLocked(d.gr, d.m)
			batch[i] = delivery{}
		}
		// Each snapshot is about twice the one before: see snapshotFloor.
		if c.opt.WAL.Size() >= max(snapshotFloor, c.opt.Checkpoint.Size()) {
			c.snapshotLocked()
		}
	}
}

// snapshotLocked brings the checkpoint file up to date — every finished
// grid and the done cells of the one in progress, a merge of the file and
// the journal — and then drops from the journal what the file now holds:
// the snapshot is renamed into place first and the journal rewritten
// second, so no cell is ever in neither.
// Committer only. Called with c.mu held, which it releases while the files
// are written. Failures are logged, not fatal, like the journal's.
func (c *Coordinator) snapshotLocked() {
	ck, gr := c.opt.Checkpoint, c.cur
	if gr != nil && gr.doneCount > 0 {
		ck.put(gr.fp, gr.done)
	}
	c.mu.Unlock()
	written := ck.write(c.opt.WAL)
	if written != nil {
		c.logf("dist: %v", written)
	} else if err := c.opt.WAL.compact(ck.covers); err != nil {
		c.logf("dist: %v", err)
	}
	c.mu.Lock()
	if written == nil && gr != nil {
		// Every cell journalled so far was done when the snapshot was
		// taken, and the committer, which alone journals, is here: a resume
		// finds them all in the checkpoint, whatever became of the journal.
		gr.journalled = 0
	}
}

// deadline is how long a granted cell may stay out before it is raced.
func (c *Coordinator) deadline(gr *gridRun) time.Duration {
	if gr.cellEWMA <= 0 {
		return c.patience
	}
	return max(deadlineFactor*gr.cellEWMA, c.floor)
}

// watchLocked is the watchdog. A grant past the deadline — its worker dead
// behind an open connection, or wedged, or merely slow — has its cell put
// back on the queue for another worker to race, once per grant; the first
// delivery wins through record's dedup, whoever sends it, so a race costs at
// most one deadline of one worker's time. The timer is then armed for the
// earliest deadline still ahead. It runs when the timer fires and whenever
// a deadline may have moved: on a grant, and on a delivery, which moves the
// average.
func (c *Coordinator) watchLocked(gr *gridRun) {
	now, deadline := time.Now(), c.deadline(gr)
	next := time.Duration(-1)
	for cell, g := range gr.grants {
		if g.raced {
			continue
		}
		out := now.Sub(g.at)
		if out >= deadline {
			g.raced = true
			gr.races++
			c.logf("dist: grid %s: cell %d out for %v, past the %v deadline: racing it",
				gr.fp, cell, out.Round(time.Millisecond), deadline.Round(time.Millisecond))
			c.putBackLocked(gr, cell)
		} else if left := deadline - out; next < 0 || left < next {
			next = left
		}
	}
	if next >= 0 {
		gr.watchdog.Reset(next)
	}
}

// putBackLocked is the one place a granted cell returns to the queue: its
// deadline passed, or its connection is gone.
func (c *Coordinator) putBackLocked(gr *gridRun, cell int) {
	gr.queue = append(gr.queue, cell)
	c.cond.Broadcast()
}

// Close shuts the coordinator down: pending RunGrid calls fail, waiting
// workers are told to exit, and the committer journals what is still
// queued, writes a last snapshot and compacts the journal — a campaign
// that finished is at rest with a complete checkpoint and an empty journal.
// Close returns when the committer has exited; close the WAL after it.
// Safe to call more than once.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.commitCond.Signal()
	c.mu.Unlock()
	if c.committed != nil {
		<-c.committed
	}
}

// failLocked poisons the campaign with a fatal worker error.
func (c *Coordinator) failLocked(err error) {
	if c.failure == nil {
		c.failure = err
	}
	c.closed = true
	c.cond.Broadcast()
	c.commitCond.Signal()
}

// Serve speaks the worker protocol over one connection until the peer
// disconnects or the campaign ends. Run it in its own goroutine per
// connection. Undelivered cells held by the connection are requeued
// when it returns.
func (c *Coordinator) Serve(conn *Conn) error {
	hello, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("dist: worker handshake: %w", err)
	}
	if hello.Type != MsgHello || hello.Proto != ProtoVersion {
		return &ProtocolError{Detail: fmt.Sprintf("worker handshake: got %s proto %d, want %s proto %d",
			hello.Type, hello.Proto, MsgHello, ProtoVersion)}
	}
	name := hello.Worker
	if name == "" {
		name = "worker"
	}
	c.logf("dist: %s connected", name)
	defer c.dropConn(conn, name)
	// How many of the grids finished the worker has passed: a connection
	// starts at the campaign's beginning.
	passed := 0

	for {
		m, err := conn.Recv()
		if err != nil {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed || errors.Is(err, io.EOF) {
				// Clean disconnect: the worker finished its grid sequence
				// (or the campaign is over). Any cells it held are
				// requeued by the deferred dropConn.
				return nil
			}
			return fmt.Errorf("dist: %s: %w", name, err)
		}
		switch m.Type {
		case MsgReady:
			reply := c.grant(conn, m.Grid, &passed)
			if err := conn.Send(reply); err != nil {
				return fmt.Errorf("dist: %s: %w", name, err)
			}
			if reply.Type == MsgShutdown {
				return nil
			}
		case MsgCell:
			c.record(conn, m)
		case MsgError:
			// A reported cell failure is deterministic: poison the campaign
			// with a typed error so callers can errors.Is/As on it. Panics
			// carry the worker-side stack for the report.
			var ferr error
			if m.Panic {
				ferr = &CellPanicError{Cell: m.Cell, Value: m.Err, Stack: m.Stack}
				c.logf("dist: %s: cell %d panicked: %s\n%s", name, m.Cell, m.Err, m.Stack)
			} else {
				ferr = &CellError{Cell: m.Cell, Err: fmt.Errorf("%s: %s", name, m.Err)}
			}
			c.mu.Lock()
			c.failLocked(ferr)
			c.mu.Unlock()
			return ferr
		default:
			return &ProtocolError{Detail: fmt.Sprintf("%s: unexpected %q message", name, m.Type)}
		}
	}
}

// dropConn ends every grant of a vanished connection. A cell already raced
// is on the queue as it is.
func (c *Coordinator) dropConn(conn *Conn, name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	gr := c.cur
	if gr == nil {
		return
	}
	for cell, g := range gr.grants {
		if g.owner != conn {
			continue
		}
		delete(gr.grants, cell)
		if !g.raced {
			c.logf("dist: %s lost, requeueing cell %d", name, cell)
			c.putBackLocked(gr, cell)
		}
	}
}

// grant is the one place a cell is granted: it blocks until the coordinator
// reaches grid fp and has a cell to hand out, the grid turns out to be
// complete, or the campaign ends. On the wire a grant is a lease of one
// cell, its id the cell's index. passed is how many of c.finished the
// worker has passed: a grid the campaign runs twice is complete for a
// worker that asks for it when the coordinator has finished the occurrence
// it stands at, not an earlier one.
func (c *Coordinator) grant(conn *Conn, fp string, passed *int) *Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if gr := c.cur; gr != nil && gr.fp == fp && !c.closed {
			for len(gr.queue) > 0 {
				cell := gr.queue[0]
				gr.queue = gr.queue[1:]
				if gr.done[cell] || gr.pending[cell] {
					continue // a raced cell, delivered while it was queued
				}
				gr.grants[cell] = &grant{owner: conn, at: time.Now()}
				c.watchLocked(gr)
				return &Message{Type: MsgLease, Grid: fp, Lease: cell, Cells: []int{cell}}
			}
		} else if i := slices.Index(c.finished[*passed:], fp); i >= 0 {
			// A worker lagging one ready behind the coordinator's Close
			// still deserves grid_done for a grid that finished, so it can
			// complete its sequence and exit cleanly.
			*passed += i + 1
			return &Message{Type: MsgGridDone, Grid: fp}
		} else if c.closed {
			return &Message{Type: MsgShutdown}
		}
		// Either the coordinator hasn't reached this grid yet, or every
		// remaining cell is out with a worker (we may still inherit one
		// whose deadline passes). Wait for the state to change.
		c.cond.Wait()
	}
}

// record takes one delivered cell: the grant bookkeeping here and now, so
// the worker's next ready is answered at once; the cell itself is marked
// done by the committer once its journal record is durable — or here, when
// the coordinator persists nothing. Duplicate deliveries (a raced cell's
// two holders) are dropped, whether the first copy is done or still queued
// for the journal; results are deterministic, so either copy is the right
// one.
func (c *Coordinator) record(conn *Conn, m *Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	gr := c.cur
	if c.closed || gr == nil || gr.fp != m.Grid || m.Cell < 0 || m.Cell >= gr.numCells {
		return // stale delivery from a previous grid
	}
	if g := gr.grants[m.Cell]; g != nil {
		// The holder's own delivery is a grant-to-delivery time; the EWMA
		// smooths over cell-size variance.
		if dur := time.Since(g.at); g.owner == conn && dur > 0 {
			if gr.cellEWMA <= 0 {
				gr.cellEWMA = dur
			} else {
				gr.cellEWMA = (3*gr.cellEWMA + dur) / 4
			}
		}
		// Any delivery ends the cell's grant: the cell is done or on its way.
		delete(gr.grants, m.Cell)
		c.watchLocked(gr)
	}
	if gr.done[m.Cell] || gr.pending[m.Cell] {
		return
	}
	if c.committed == nil {
		c.markDoneLocked(gr, m)
		return
	}
	gr.pending[m.Cell] = true
	c.queue = append(c.queue, delivery{gr, m})
	c.commitCond.Signal()
}

// markDoneLocked is the one place a cell starts to count: the done set,
// Progress, the crash hook, the grid's completion. With a journal it runs
// on the committer, after the fsync that covers the cell's record.
func (c *Coordinator) markDoneLocked(gr *gridRun, m *Message) {
	gr.done[m.Cell] = true
	gr.cells[m.Cell] = walRecord{Grid: m.Grid, Cell: m.Cell, Payload: m.Payload, Stats: m.Stats}
	gr.doneCount++
	if gr.progress != nil {
		gr.progress(gr.doneCount*gr.runsPerCell, gr.numCells*gr.runsPerCell)
	}
	c.recorded++
	if c.crashAfter > 0 && c.recorded >= c.crashAfter {
		// Simulated hard crash: no snapshot, no cleanup. The cells recorded
		// since the last one survive only in the WAL, with any the
		// committer journalled in the same batch and has not counted yet.
		fmt.Fprintf(os.Stderr, "dist: %s=%d reached with %d cells of grid %s in the journal, crashing\n",
			crashAfterEnv, c.crashAfter, gr.journalled, gr.fp)
		os.Exit(killExitCode)
	}
	if gr.doneCount == gr.numCells {
		c.cond.Broadcast()
	}
}
