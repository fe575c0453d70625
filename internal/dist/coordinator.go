package dist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"time"

	"ripple/internal/stats"
)

// Options tunes a Coordinator. The zero value works: leases are sized
// automatically, stalled workers time out after two minutes, and nothing
// is persisted.
type Options struct {
	// LeaseCells is the number of cells handed out per lease; 0 sizes
	// leases automatically from the grid (small enough that a lost worker
	// forfeits little work, large enough to amortize the round-trip).
	LeaseCells int
	// LeaseTimeout reclaims a lease when its worker has neither finished
	// it nor delivered a cell for this long. 0 means two minutes.
	LeaseTimeout time.Duration
	// Checkpoint, when set, persists completed cells so an interrupted
	// campaign can resume. With a WAL it is the journal's compaction: a
	// snapshot is written when the journal has outgrown the last one
	// (snapshotFloor and a doubling rule) and once more in Close. Without
	// one — a configuration only tests construct, OpenPersistence always
	// pairs the two — there is no cadence: a snapshot at each grid's end
	// and in Close.
	Checkpoint *Checkpoint
	// WAL, when set, journals every delivered cell (fsync'd, group commit)
	// before the coordinator counts it: a coordinator crash loses nothing
	// that counted. RunGrid replays the journal on top of the restored
	// checkpoint, and each snapshot drops from it what that snapshot holds.
	// Close the coordinator before the WAL.
	WAL *WAL
	// CellTimeout is a per-cell wall-clock deadline: a lease whose worker
	// has not delivered a cell for this long is preemptively boosted — its
	// remaining cells are copied back onto the queue so another worker can
	// race it, first completion winning through the normal dedup. 0 derives
	// the deadline from observed cell durations (8× a running average),
	// falling back to no boost until the first cell completes.
	CellTimeout time.Duration
	// Logf reports worker churn (connects, losses, lease reclaims);
	// nil discards.
	Logf func(format string, args ...any)
}

// exitAfterEnv is a test hook: when set to a positive integer, the
// coordinator snapshots its checkpoint and hard-exits the process
// (exit code 42, no deferred cleanup) after recording that many cells.
// The checkpoint/resume end-to-end tests use it to simulate preemption
// at a deterministic point.
const exitAfterEnv = "RIPPLE_DIST_EXIT_AFTER"

// killExitCode is the exit code of the self-kill test hook above.
const killExitCode = 42

// crashAfterEnv is the harsher sibling of exitAfterEnv: the coordinator
// hard-exits after recording that many cells WITHOUT a snapshot first, so
// the cells recorded since the last one survive only in the WAL. The count
// is per process, and the variable is inherited by supervised restarts —
// each incarnation crashes again after that many more cells, exercising
// repeated crash/replay cycles until the grid completes.
const crashAfterEnv = "RIPPLE_DIST_CRASH_AFTER"

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
// have reached (by fingerprint) and the coordinator leases cells of the
// current grid, holding early arrivals until it catches up.
//
// A coordinator with a Checkpoint or a WAL owns one more goroutine, the
// committer, which alone touches the two files: connection goroutines queue
// what workers deliver and answer them at once; the committer journals
// whatever has queued with one write and one fsync and only then marks
// those cells done, so a cell that counts — in Progress, towards its grid's
// completion, in a snapshot — is already durable. It also writes the
// snapshots, each followed by the journal's compaction. Close stops it.
type Coordinator struct {
	opt Options

	mu        sync.Mutex
	cond      *sync.Cond
	completed map[string]*GridOutput // finished grids, by fingerprint
	cur       *gridRun               // grid executing, or abandoned at Close
	closed    bool
	failure   error // first fatal worker error, poisons the campaign

	// The committer's inbox, under mu: deliveries awaiting the journal, and
	// a snapshot asked for outside the journal-size rule. committed is
	// closed when the committer has exited; nil without one.
	queue       []delivery
	snapshotDue bool
	commitCond  *sync.Cond
	committed   chan struct{}

	killAfter  int // exitAfterEnv hook; 0 = disabled
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
	queue       []int // cells awaiting a lease
	leases      map[int]*lease
	nextLease   int
	done        []bool
	pending     []bool // delivered and queued for the journal, not yet done
	doneCount   int
	cells       []cellRecord // payload+stats per completed cell
	progress    func(done, total int)
	// cellEWMA is a running average of observed cell wall-clock durations
	// (measured delivery-to-delivery per lease), feeding the stall
	// detector's derived deadline when Options.CellTimeout is zero.
	cellEWMA time.Duration
}

// lease is an outstanding assignment of cells to one connection.
type lease struct {
	id      int
	cells   []int // not yet delivered
	owner   *Conn
	expires time.Time
	lastAt  time.Time // grant or most recent delivery, for stall detection
	boosted bool      // remaining cells already copied back to the queue
}

// GridOutput is a completed grid: one raw payload per cell, exactly as
// the workers sent them, plus the per-metric Welford states merged in
// cell-index order (deterministic regardless of delivery order).
type GridOutput struct {
	Payloads [][]byte
	Stats    map[string]stats.State
}

// NewCoordinator creates a coordinator ready to Serve connections and
// RunGrid campaigns.
func NewCoordinator(opt Options) *Coordinator {
	if opt.LeaseTimeout <= 0 {
		opt.LeaseTimeout = 2 * time.Minute
	}
	c := &Coordinator{opt: opt, completed: map[string]*GridOutput{}}
	c.cond = sync.NewCond(&c.mu)
	c.commitCond = sync.NewCond(&c.mu)
	if v := os.Getenv(exitAfterEnv); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			c.killAfter = n
		}
	}
	if v := os.Getenv(crashAfterEnv); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			c.crashAfter = n
		}
	}
	if opt.Checkpoint != nil || opt.WAL != nil {
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
// traverse them. Cells already recorded in the checkpoint are restored,
// not re-executed; if every cell is restored no worker is needed at all.
func (c *Coordinator) RunGrid(spec GridSpec) (*GridOutput, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, c.closeErrLocked()
	}
	if out, ok := c.completed[spec.Fingerprint]; ok {
		// The same grid can appear twice in a campaign (e.g. an
		// experiment run twice); its result is deterministic, so reuse it.
		c.mu.Unlock()
		return out, nil
	}
	if c.cur != nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("dist: RunGrid(%s) while %s still running", spec.Fingerprint, c.cur.fp)
	}
	gr := &gridRun{
		fp:          spec.Fingerprint,
		numCells:    spec.NumCells,
		runsPerCell: spec.RunsPerCell,
		leases:      map[int]*lease{},
		done:        make([]bool, spec.NumCells),
		pending:     make([]bool, spec.NumCells),
		cells:       make([]cellRecord, spec.NumCells),
		progress:    spec.Progress,
	}
	if c.opt.Checkpoint != nil {
		done, cells, err := c.opt.Checkpoint.restore(spec.Fingerprint, spec.NumCells)
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		for i, ok := range done {
			if ok {
				gr.done[i] = true
				gr.cells[i] = cells[i]
				gr.doneCount++
			}
		}
		if gr.doneCount > 0 {
			c.logf("dist: grid %s: restored %d/%d cells from checkpoint",
				spec.Fingerprint, gr.doneCount, spec.NumCells)
		} else if n := c.opt.Checkpoint.numGrids(); done == nil && n > 0 {
			// Either the campaign had not reached this grid when the file
			// was written, or the file belongs to another campaign (other
			// flags, another version): say so rather than rerun silently.
			c.logf("dist: grid %s: not among the %d grids of checkpoint %s, running all %d cells",
				spec.Fingerprint, n, c.opt.Checkpoint.Path(), spec.NumCells)
		}
	}
	if c.opt.WAL != nil {
		// Replay journal entries on top of the checkpoint: cells delivered
		// after the last snapshot. The WAL may hold records the checkpoint
		// covers too (a crash between the snapshot's rename and the
		// journal's compaction); the done bitmap dedupes them.
		replayed := 0
		for _, r := range c.opt.WAL.Restored() {
			if r.Grid != spec.Fingerprint || r.Cell < 0 || r.Cell >= spec.NumCells {
				continue
			}
			if gr.done[r.Cell] || len(r.Payload) == 0 {
				continue
			}
			gr.done[r.Cell] = true
			gr.cells[r.Cell] = cellRecord{Payload: r.Payload, Stats: r.Stats}
			gr.doneCount++
			replayed++
		}
		if replayed > 0 {
			c.logf("dist: grid %s: replayed %d cells from WAL", spec.Fingerprint, replayed)
		}
	}
	for i := 0; i < spec.NumCells; i++ {
		if !gr.done[i] {
			gr.queue = append(gr.queue, i)
		}
	}
	c.cur = gr
	c.cond.Broadcast() // wake ready handlers waiting for this grid

	stop := make(chan struct{})
	go c.reclaimLoop(gr, stop)
	for gr.doneCount < gr.numCells && !c.closed {
		c.cond.Wait()
	}
	close(stop)
	if c.closed {
		// c.cur stays: the committer's last snapshot takes the abandoned
		// grid's cells from it, and a closed coordinator runs no other.
		err := c.closeErrLocked()
		c.mu.Unlock()
		return nil, err
	}
	out := c.finalizeLocked(gr)
	c.cur = nil
	c.cond.Broadcast() // wake workers ready for the next grid
	c.mu.Unlock()
	return out, nil
}

func (c *Coordinator) closeErrLocked() error {
	if c.failure != nil {
		return c.failure
	}
	return ErrClosed
}

// finalizeLocked assembles a completed grid's output, records it for
// replays, and enters it in the checkpoint's document — in memory: every
// cell of it is already in the journal, and the file catches up at the next
// snapshot. Without a journal that snapshot is asked for now.
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
	c.completed[gr.fp] = out
	if ck := c.opt.Checkpoint; ck != nil {
		ck.put(gr.fp, gr.numCells, gr.done, gr.cells)
		if c.opt.WAL == nil {
			c.snapshotDue = true
			c.commitCond.Signal()
		}
	}
	return out
}

// commitLoop is the committer: the one goroutine that writes the journal
// and the checkpoint. Each round takes everything record has queued since
// the last — the batch grows with the number of workers delivering while
// an fsync is in flight, the fsync count does not — journals it, marks it
// done, and takes a snapshot when one is due. It exits once the
// coordinator is closed and the queue is empty, after a last snapshot.
func (c *Coordinator) commitLoop() {
	defer close(c.committed)
	var batch []delivery
	var recs []walRecord
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for len(c.queue) == 0 && !c.snapshotDue && !c.closed {
			c.commitCond.Wait()
		}
		if len(c.queue) == 0 && c.closed {
			c.snapshotLocked()
			return
		}
		batch, c.queue = c.queue, batch[:0]
		if wal := c.opt.WAL; wal != nil && len(batch) > 0 {
			c.mu.Unlock()
			recs = recs[:0]
			for _, d := range batch {
				recs = append(recs, walRecord{Grid: d.m.Grid, Cell: d.m.Cell, Payload: d.m.Payload, Stats: d.m.Stats})
			}
			// A journal that cannot be written is logged, not fatal: the
			// campaign's in-memory state is intact, only resumability is
			// degraded.
			if err := wal.appendBatch(recs); err != nil {
				c.logf("dist: %v", err)
			}
			c.mu.Lock()
		}
		for i, d := range batch {
			c.markDoneLocked(d.gr, d.m)
			batch[i] = delivery{}
		}
		if c.snapshotDue || c.journalOutgrown() {
			c.snapshotDue = false
			c.snapshotLocked()
		}
	}
}

// journalOutgrown is the snapshot rule of a journalled checkpoint.
func (c *Coordinator) journalOutgrown() bool {
	wal, ck := c.opt.WAL, c.opt.Checkpoint
	return wal != nil && ck != nil && wal.Size() >= max(snapshotFloor, ck.Size())
}

// snapshotLocked brings the checkpoint file up to date — every finished
// grid and the done cells of the one in progress — and then drops from the
// journal what the file now holds: the snapshot is renamed into place
// first and the journal rewritten second, so no cell is ever in neither.
// Committer only. Called with c.mu held, which it releases while the files
// are written. Failures are logged, not fatal, like the journal's.
func (c *Coordinator) snapshotLocked() {
	ck := c.opt.Checkpoint
	if ck == nil {
		return
	}
	if gr := c.cur; gr != nil && gr.doneCount > 0 {
		ck.put(gr.fp, gr.numCells, gr.done, gr.cells)
	}
	c.mu.Unlock()
	defer c.mu.Lock()
	if err := ck.write(); err != nil {
		c.logf("dist: %v", err)
		return
	}
	if wal := c.opt.WAL; wal != nil {
		if err := wal.compact(ck.covers); err != nil {
			c.logf("dist: %v", err)
		}
	}
}

// reclaimLoop expires stalled leases for one grid until stop closes. Two
// watchdogs run on the same ticker: the lease timeout (worker presumed
// dead — cells requeued, lease dropped) and the faster per-cell stall
// detector (worker presumed wedged on one cell — remaining cells are
// copied back to the queue so another worker can race it, but the lease
// survives in case the original worker eventually delivers).
func (c *Coordinator) reclaimLoop(gr *gridRun, stop chan struct{}) {
	tick := c.opt.LeaseTimeout / 4
	if ct := c.opt.CellTimeout; ct > 0 && ct/4 < tick {
		tick = ct / 4
	}
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > 5*time.Second {
		tick = 5 * time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			c.mu.Lock()
			if c.cur == gr {
				for id, l := range gr.leases {
					if now.After(l.expires) {
						c.logf("dist: grid %s: lease %d timed out, requeueing %d cells",
							gr.fp, id, len(l.cells))
						c.requeueLocked(gr, id)
						continue
					}
					if !l.boosted && len(l.cells) > 0 {
						if stall := c.stallDeadline(gr); stall > 0 && now.Sub(l.lastAt) > stall {
							c.logf("dist: grid %s: lease %d stalled for %v, racing %d cells",
								gr.fp, id, now.Sub(l.lastAt).Round(time.Millisecond), len(l.cells))
							l.boosted = true
							gr.queue = append(gr.queue, l.cells...)
							c.cond.Broadcast()
						}
					}
				}
			}
			c.mu.Unlock()
		}
	}
}

// stallDeadline is how long a lease may go without delivering a cell
// before its remaining cells are raced: the configured CellTimeout, or
// 8× the observed average cell duration (floored so fast grids don't
// thrash), or 0 — no stall detection — before any cell has completed.
func (c *Coordinator) stallDeadline(gr *gridRun) time.Duration {
	if c.opt.CellTimeout > 0 {
		return c.opt.CellTimeout
	}
	if gr.cellEWMA <= 0 {
		return 0
	}
	d := 8 * gr.cellEWMA
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	return d
}

// requeueLocked returns a lease's undelivered cells to the queue.
func (c *Coordinator) requeueLocked(gr *gridRun, id int) {
	l, ok := gr.leases[id]
	if !ok {
		return
	}
	delete(gr.leases, id)
	gr.queue = append(gr.queue, l.cells...)
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
// connection. Undelivered leases held by the connection are requeued
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

	for {
		m, err := conn.Recv()
		if err != nil {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed || errors.Is(err, io.EOF) {
				// Clean disconnect: the worker finished its grid sequence
				// (or the campaign is over). Any leases it held are
				// requeued by the deferred dropConn.
				return nil
			}
			return fmt.Errorf("dist: %s: %w", name, err)
		}
		switch m.Type {
		case MsgReady:
			reply := c.nextLease(conn, m.Grid)
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

// dropConn requeues every lease owned by a vanished connection.
func (c *Coordinator) dropConn(conn *Conn, name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gr := c.cur; gr != nil {
		for id, l := range gr.leases {
			if l.owner == conn {
				c.logf("dist: %s lost, requeueing lease %d (%d cells)", name, id, len(l.cells))
				c.requeueLocked(gr, id)
			}
		}
	}
}

// nextLease blocks until the coordinator reaches grid fp and has cells
// to lease, the grid turns out to be complete, or the campaign ends.
func (c *Coordinator) nextLease(conn *Conn, fp string) *Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		// Completed-grid check first: a worker lagging one ready behind
		// the coordinator's Close still deserves grid_done for a grid that
		// finished, so it can complete its sequence and exit cleanly.
		if _, ok := c.completed[fp]; ok {
			return &Message{Type: MsgGridDone, Grid: fp}
		}
		if c.closed {
			return &Message{Type: MsgShutdown}
		}
		if gr := c.cur; gr != nil && gr.fp == fp && len(gr.queue) > 0 {
			n := c.opt.LeaseCells
			if n <= 0 {
				// Small enough to forfeit cheaply on worker loss, large
				// enough to amortize a round-trip on big grids.
				n = gr.numCells / 32
				if n < 1 {
					n = 1
				}
				if n > 16 {
					n = 16
				}
			}
			// Pop cells off the queue, skipping any delivered while queued
			// (a boosted cell whose original owner delivered first).
			var cells []int
			for len(gr.queue) > 0 && len(cells) < n {
				cell := gr.queue[0]
				gr.queue = gr.queue[1:]
				if !gr.done[cell] && !gr.pending[cell] {
					cells = append(cells, cell)
				}
			}
			if len(cells) > 0 {
				now := time.Now()
				l := &lease{
					id:      gr.nextLease,
					cells:   cells,
					owner:   conn,
					expires: now.Add(c.opt.LeaseTimeout),
					lastAt:  now,
				}
				gr.nextLease++
				gr.leases[l.id] = l
				return &Message{Type: MsgLease, Grid: fp, Lease: l.id,
					Cells: append([]int(nil), l.cells...)}
			}
			// Every queued cell was already done; fall through and wait.
		}
		// Either the coordinator hasn't reached this grid yet, or all
		// remaining cells are leased out (we may still inherit them if a
		// lease expires). Wait for the state to change.
		c.cond.Wait()
	}
}

// record takes one delivered cell: the lease bookkeeping here and now, so
// the worker's next ready is answered at once; the cell itself is marked
// done by the committer once its journal record is durable — or here, when
// the coordinator persists nothing. Duplicate deliveries (a reassigned
// lease racing its original owner) are dropped, whether the first copy is
// done or still queued for the journal; results are deterministic, so
// either copy is the right one.
func (c *Coordinator) record(conn *Conn, m *Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	gr := c.cur
	if c.closed || gr == nil || gr.fp != m.Grid || m.Cell < 0 || m.Cell >= gr.numCells {
		return // stale delivery from a previous grid or reassigned lease
	}
	if l, ok := gr.leases[m.Lease]; ok && l.owner == conn {
		now := time.Now()
		l.expires = now.Add(c.opt.LeaseTimeout) // the worker is alive
		if dur := now.Sub(l.lastAt); dur > 0 {
			// Delivery-to-delivery duration feeds the stall detector's
			// derived deadline; the EWMA smooths over cell-size variance.
			if gr.cellEWMA <= 0 {
				gr.cellEWMA = dur
			} else {
				gr.cellEWMA = (3*gr.cellEWMA + dur) / 4
			}
		}
		l.lastAt = now
		for i, cell := range l.cells {
			if cell == m.Cell {
				l.cells = append(l.cells[:i], l.cells[i+1:]...)
				break
			}
		}
		if len(l.cells) == 0 {
			delete(gr.leases, m.Lease)
		}
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

// markDoneLocked is the one place a cell starts to count: the done bitmap,
// Progress, the crash hooks, the grid's completion. With a journal it runs
// on the committer, after the fsync that covers the cell's record.
func (c *Coordinator) markDoneLocked(gr *gridRun, m *Message) {
	gr.done[m.Cell] = true
	gr.cells[m.Cell] = cellRecord{Payload: m.Payload, Stats: m.Stats}
	gr.doneCount++
	if gr.progress != nil {
		gr.progress(gr.doneCount*gr.runsPerCell, gr.numCells*gr.runsPerCell)
	}
	c.recorded++
	if c.killAfter > 0 && c.recorded >= c.killAfter {
		c.snapshotLocked()
		fmt.Fprintf(os.Stderr, "dist: %s=%d reached, exiting\n", exitAfterEnv, c.killAfter)
		os.Exit(killExitCode)
	}
	if c.crashAfter > 0 && c.recorded >= c.crashAfter {
		// Simulated hard crash: no snapshot, no cleanup. The cells recorded
		// since the last one survive only in the WAL.
		fmt.Fprintf(os.Stderr, "dist: %s=%d reached, crashing\n", crashAfterEnv, c.crashAfter)
		os.Exit(killExitCode)
	}
	if gr.doneCount == gr.numCells {
		c.cond.Broadcast()
	}
}
