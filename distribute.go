package ripple

import (
	"fmt"
	"io"
	"os"

	"ripple/internal/dist"
)

// WorkerEnv marks a process as a spawned campaign worker. Distribute
// sets it on the workers it launches; a process that finds it set serves
// leased runs over stdin/stdout instead of coordinating, and exits when
// the campaign ends.
const WorkerEnv = "RIPPLE_DIST_WORKER"

// DistributeOptions controls Campaign.Distribute.
type DistributeOptions struct {
	// Workers is the number of local worker processes to spawn (required,
	// ≥ 1).
	Workers int
	// WorkerArgs are the arguments the spawned workers run with; nil uses
	// this process's own arguments (os.Args[1:]). The workers execute the
	// same program, which must reach Campaign.Distribute with an
	// identical Campaign value — see the re-exec contract on Distribute.
	WorkerArgs []string
	// Checkpoint, when non-empty, persists completed runs so an
	// interrupted campaign can restart without losing them: every
	// delivered run goes to a write-ahead journal beside this file (the
	// path + ".wal") before it counts, and the file is the journal's
	// compaction — a snapshot whenever the journal has outgrown the last
	// one, and a complete one when Distribute returns. With Resume set
	// the campaign continues from what the two hold (and keeps writing
	// them) — a file that does not exist yet holds nothing, as after a
	// crash before the first snapshot; otherwise both start fresh.
	Checkpoint string
	Resume     bool
	// Logf reports worker churn and checkpoint restores; nil discards.
	Logf func(format string, args ...any)
}

// Distribute executes the campaign's runs across locally spawned worker
// processes and returns seed-averaged results in scenario order,
// bit-identical to RunBatch on the same campaign. Every (scenario ×
// seed) run is an independently granted unit; a worker that dies forfeits
// its run to the survivors, and one that stalls is raced by them.
//
// The re-exec contract: each worker is this same executable, started
// with WorkerArgs and the WorkerEnv environment variable set. The
// program must construct the same Campaign and call Distribute again;
// finding WorkerEnv set, the call serves runs over stdin/stdout and then
// terminates the process — in a worker it never returns. Scenarios that
// set TraceJSONL run their trace pass locally in the coordinator, so
// trace output needs no cross-process plumbing.
func (c Campaign) Distribute(opt DistributeOptions) ([]*Result, error) {
	// One cell per (scenario, seed), so a grant is one run and a single
	// many-seed scenario still spreads over every worker.
	plan, cfgs, err := c.plan(true)
	if plan == nil {
		return nil, err
	}
	if os.Getenv(WorkerEnv) != "" {
		serveBatchWorker(dist.GridCells{Plan: plan})
	}
	if opt.Workers < 1 {
		return nil, fmt.Errorf("ripple: Distribute: Workers = %d, need at least 1", opt.Workers)
	}
	var ck *dist.Checkpoint
	var wal *dist.WAL
	if opt.Checkpoint != "" {
		if ck, wal, err = dist.OpenPersistence(opt.Checkpoint, opt.Resume); err != nil {
			return nil, err
		}
		defer wal.Close()
	}
	coord := dist.NewCoordinator(dist.Options{Checkpoint: ck, WAL: wal, Logf: opt.Logf})
	// Before the journal closes (deferred calls run last first): Close
	// writes the final snapshot and compacts the journal.
	defer coord.Close()
	argv := opt.WorkerArgs
	if argv == nil {
		argv = os.Args[1:]
	}
	ws, err := dist.SpawnWorkers(coord, opt.Workers,
		append([]string{os.Args[0]}, argv...), []string{WorkerEnv + "=1"})
	if err != nil {
		return nil, err
	}
	res, err := dist.ExecutePlan(coord, plan, c.Progress)
	coord.Close()
	if werr := ws.Wait(); werr != nil && err == nil && opt.Logf != nil {
		opt.Logf("ripple: %v", werr)
	}
	if err != nil {
		return nil, err
	}
	return c.fold(cfgs, res)
}

// serveBatchWorker is the worker side of the re-exec contract: serve
// leased runs on stdin/stdout, then exit the process.
func serveBatchWorker(cells dist.GridCells) {
	rw := struct {
		io.Reader
		io.Writer
	}{os.Stdin, os.Stdout}
	w, err := dist.NewWorker(rw, fmt.Sprintf("worker-%d", os.Getpid()))
	if err == nil {
		err = w.ServeGrid(cells)
	}
	if err != nil && err != dist.ErrShutdown {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}
