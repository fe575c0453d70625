package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime/debug"

	"ripple/internal/campaign/pool"
	"ripple/internal/stats"
)

// CellSet is the worker-side view of one grid: a deterministic, shardable
// batch of cells. campaign.Plan satisfies it through GridCells, the one
// production implementation.
type CellSet interface {
	// Fingerprint identifies the grid across processes; coordinator and
	// worker must compute identical fingerprints from identical
	// definitions.
	Fingerprint() string
	// RunCell executes one cell, returning its payload (marshalled and
	// shipped verbatim to the coordinator) and per-metric Welford states.
	RunCell(c int) (payload any, st map[string]stats.State, err error)
}

// GridServer is anything that can work one grid's lease queue: a Worker
// bound to a single connection, or a Redialer that survives connection
// loss.
type GridServer interface {
	ServeGrid(src CellSet) error
}

// Worker executes leased cells over one coordinator connection. A worker
// process creates one Worker and calls ServeGrid once per grid, in the
// same order the coordinator runs them.
type Worker struct {
	conn *Conn
	name string
}

// NewWorker performs the hello handshake over rw and returns the worker.
func NewWorker(rw io.ReadWriter, name string) (*Worker, error) {
	w := &Worker{conn: NewConn(rw), name: name}
	err := w.conn.Send(&Message{Type: MsgHello, Proto: ProtoVersion, Worker: name})
	if err != nil {
		if errors.Is(err, ErrTransport) {
			return nil, err
		}
		return nil, &TransportError{Op: "hello", Err: err}
	}
	return w, nil
}

// ServeGrid works the coordinator's queue for one grid: request a lease,
// run its cells, stream the results, repeat until the coordinator says
// the grid is done. Returns ErrShutdown if the campaign ended instead.
func (w *Worker) ServeGrid(src CellSet) error {
	fp := src.Fingerprint()
	for {
		if err := w.conn.Send(&Message{Type: MsgReady, Grid: fp}); err != nil {
			return err
		}
		m, err := w.conn.Recv()
		if err != nil {
			// A clean EOF here is still a transport failure for the worker:
			// it was promised a lease or a grid_done and got neither.
			return &TransportError{Op: "waiting for lease", Err: err}
		}
		switch m.Type {
		case MsgGridDone:
			return nil
		case MsgShutdown:
			return ErrShutdown
		case MsgLease:
			for _, cell := range m.Cells {
				if err := w.runCell(src, fp, m.Lease, cell); err != nil {
					return err
				}
			}
		default:
			return &ProtocolError{Detail: fmt.Sprintf("unexpected %q message awaiting lease", m.Type)}
		}
	}
}

// runCell executes one cell and streams the result. Execution errors and
// panics are reported to the coordinator (poisoning the campaign — cell
// failures are deterministic, not transient faults) before being returned
// as typed errors. A panic is confined to the cell: the worker process
// survives, the connection stays usable, and the lease is resolved
// through the error report rather than orphaned until timeout.
func (w *Worker) runCell(src CellSet, fp string, leaseID, cell int) error {
	payload, st, err := runCellGuarded(src, cell)
	if err != nil {
		var pe *CellPanicError
		if errors.As(err, &pe) {
			w.conn.Send(&Message{Type: MsgError, Grid: fp, Cell: cell,
				Err: pe.Value, Panic: true, Stack: pe.Stack})
			return pe
		}
		w.conn.Send(&Message{Type: MsgError, Grid: fp, Cell: cell, Err: err.Error()})
		return &CellError{Cell: cell, Err: err}
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		w.conn.Send(&Message{Type: MsgError, Grid: fp, Cell: cell, Err: err.Error()})
		return &CellError{Cell: cell, Err: fmt.Errorf("marshal: %w", err)}
	}
	return w.conn.Send(&Message{
		Type: MsgCell, Grid: fp, Lease: leaseID, Cell: cell,
		Payload: raw, Stats: st,
	})
}

// runCellGuarded executes one cell under a recover guard. A panic inside
// RunCell — directly, or recovered by the campaign pool on a helper
// goroutine and surfaced as a *pool.PanicError — is normalized to a
// *CellPanicError carrying the cell index and stack.
func runCellGuarded(src CellSet, cell int) (payload any, st map[string]stats.State, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &CellPanicError{Cell: cell, Value: fmt.Sprint(r), Stack: string(debug.Stack())}
		}
	}()
	payload, st, err = src.RunCell(cell)
	var pp *pool.PanicError
	if errors.As(err, &pp) {
		err = &CellPanicError{Cell: cell, Value: pp.Value, Stack: pp.Stack}
	}
	return payload, st, err
}
