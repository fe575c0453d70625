package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ripple/internal/campaign"
	"ripple/internal/campaign/pool"
	"ripple/internal/dist"
	"ripple/internal/experiments"
	"ripple/internal/network"
	"ripple/internal/sim"
)

// suiteWL regenerates the paper — every experiment of experiments.All —
// once per pass, either through the in-process pool or through a
// coordinator with spawned worker processes. An op is one experiment.
type suiteWL struct {
	o       runOpts
	viaDist bool

	pool    *pool.Pool
	coord   *dist.Coordinator
	workers *dist.WorkerSet
	wal     *dist.WAL

	pass0      [][]byte // canonical tables of each experiment of pass 0
	pass0Host  time.Duration
	replayHost time.Duration // a thorough replay's host time
}

func (w *suiteWL) name() string {
	if w.viaDist {
		return suiteDist
	}
	return suitePool
}

// One pass is both the unit of work and the unit of output.
func (w *suiteWL) digestPasses() int { return 1 }

// suiteOptions are the experiment settings of pass p. Passes differ in
// their seeds because a coordinator answers a grid it has already run
// from memory: repeating pass 0's seeds would time nothing.
func suiteOptions(seed uint64, pass int, quick bool) experiments.Options {
	base := seed + 3*uint64(pass)
	return experiments.Options{
		Seeds:    []uint64{base, base + 1, base + 2},
		Duration: dur(200*sim.Millisecond, 50*sim.Millisecond, quick),
	}
}

// warmupOptions run the first experiment once under a seed no pass uses.
func warmupOptions(seed uint64, quick bool) experiments.Options {
	opt := suiteOptions(seed, 0, quick)
	opt.Seeds = []uint64{derive(seed, tagWarmup)}
	return opt
}

// probeConfig stands in for "the suite's scenario": the suite's most
// common topology under its heaviest traffic, at the suite's duration.
func (w *suiteWL) probeConfig() network.Config {
	cfg := voipFig1(w.o.seed, w.o.quick)
	cfg.Duration = suiteOptions(w.o.seed, 0, w.o.quick).Duration
	return cfg
}

// setup expands every experiment's grid declaration into its configs —
// the suite's input generation — and, distributed, starts the coordinator
// and waits for every worker's handshake.
func (w *suiteWL) setup(tr *tracer) error {
	defer tr.start("setup", -1)()
	w.pool = pool.New(width)
	end := tr.start("campaign.Grid.Plan", -1)
	opt := suiteOptions(w.o.seed, 0, w.o.quick)
	opt.RunGrid = func(g *campaign.Grid) (*campaign.Result, error) {
		_, err := g.Plan()
		return nil, err // a nil result makes the driver emit a placeholder table
	}
	for _, r := range experiments.All() {
		if _, err := r.Run(opt); err != nil {
			return err
		}
	}
	end()
	if !w.viaDist {
		return nil
	}
	defer tr.start("dist.SpawnWorkers", -1)()
	ckpt := filepath.Join(w.o.scratch, "suite.ckpt")
	wal, err := dist.CreateWAL(ckpt + ".wal")
	if err != nil {
		return err
	}
	connected := make(chan struct{}, width) // one send per worker
	coord := dist.NewCoordinator(dist.Options{
		Checkpoint: dist.NewCheckpoint(ckpt),
		WAL:        wal,
		Logf: func(format string, args ...any) {
			// The coordinator's only handshake signal is its log line.
			if strings.HasSuffix(format, " connected") {
				connected <- struct{}{}
				return
			}
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	argv := []string{w.o.exe, "-worker", "-seed", strconv.FormatUint(w.o.seed, 10)}
	if w.o.quick {
		argv = append(argv, "-quick")
	}
	workers, err := dist.SpawnWorkers(coord, width, argv, nil)
	if err != nil {
		wal.Close()
		return err
	}
	w.coord, w.workers, w.wal = coord, workers, wal
	for i := 0; i < width; i++ {
		select {
		case <-connected:
		case <-time.After(30 * time.Second):
			workers.Kill()
			w.close()
			return fmt.Errorf("worker %d of %d never connected", i+1, width)
		}
	}
	return nil
}

func (w *suiteWL) close() {
	if w.coord == nil {
		return
	}
	w.coord.Close()
	if err := w.workers.Wait(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	}
	w.wal.Close()
	w.coord, w.workers, w.wal = nil, nil, nil
}

func (w *suiteWL) warmup() error {
	var p passOut
	w.experiment(experiments.All()[0], warmupOptions(w.o.seed, w.o.quick), w.pool, w.viaDist, -1, nil, nil, &p)
	if p.failed > 0 {
		return fmt.Errorf("warm-up experiment failed")
	}
	return nil
}

// experiment runs one op — every grid of one experiment — and checks its
// tables. It returns their canonical bytes, nil when the op failed.
func (w *suiteWL) experiment(r experiments.Runner, opt experiments.Options, pl *pool.Pool,
	viaDist bool, op int, tr *tracer, counts *tally, p *passOut) []byte {
	defer tr.start("experiment", op)()
	var events uint64
	opt.Pool = pl
	opt.RunGrid = func(g *campaign.Grid) (*campaign.Result, error) {
		defer tr.start("grid", op)()
		var res *campaign.Result
		var err error
		if viaDist {
			end := tr.start("dist.RunGrid", op)
			res, err = dist.ExecuteGrid(w.coord, g)
			end()
		} else {
			end := tr.start("campaign.Grid.Run", op)
			res, err = g.Run()
			end()
		}
		if err != nil {
			return nil, err
		}
		for i := range res.Cells {
			seeds := res.Cells[i].Seeds
			for _, r := range seeds {
				events += r.Events
				p.simS += r.Duration.Seconds()
			}
			p.runs += len(seeds)
			if counts != nil {
				counts.addCell(seeds)
			}
		}
		return res, nil
	}
	start := mark()
	tables, err := runExperiment(r, opt)
	host, _ := start.host(width)
	p.opMs = append(p.opMs, float64(host.Nanoseconds())/1e6)
	p.attempted++
	if err == nil && events == 0 {
		err = fmt.Errorf("processed 0 events")
	}
	var out []byte
	if err == nil {
		if out, err = canonical(tables); err != nil {
			err = fmt.Errorf("non-finite cell: %w", err)
		}
	}
	if err != nil {
		fail(w.name(), op, fmt.Errorf("%s: %w", r.Name, err))
		p.failed++
		return nil
	}
	p.events += events
	if counts != nil {
		counts.ops++
	}
	return out
}

// runExperiment turns a panic outside the pool's own guard into an op
// failure.
func runExperiment(r experiments.Runner, opt experiments.Options) (tables []*experiments.Table, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("panic: %v", rec)
		}
	}()
	return r.Run(opt)
}

func (w *suiteWL) pass(i int, tr *tracer, counts *tally) passOut {
	p := passOut{lanes: width}
	all := experiments.All()
	opt := suiteOptions(w.o.seed, i, w.o.quick)
	outs := make([][]byte, len(all))
	start := mark()
	for e, r := range all {
		outs[e] = w.experiment(r, opt, w.pool, w.viaDist, i*len(all)+e, tr, counts, &p)
	}
	p.host, _ = start.host(width)
	if i == 0 {
		w.pass0, w.pass0Host = outs, p.host
	}
	p.output = bytes.Join(outs, []byte{'\n'})
	return p
}

// replay regenerates pass 0 in-process and requires byte-identical
// tables. For suite_dist that is the suite_pool regeneration of the same
// seeds — the whole of it, always, since it is the workload's defining
// check. For suite_pool a thorough replay runs everything at pool width
// 1 (tables must not depend on the width); a plain one repeats only the
// first experiment.
func (w *suiteWL) replay(thorough bool) (attempted, failed int) {
	all := experiments.All()
	pl := w.pool
	switch {
	case w.viaDist:
		thorough = true
	case thorough:
		pl = pool.New(1)
	}
	if !thorough {
		all = all[:1]
	}
	var p passOut
	opt := suiteOptions(w.o.seed, 0, w.o.quick)
	start := mark()
	for e, r := range all {
		out := w.experiment(r, opt, pl, false, e, nil, nil, &p)
		if out != nil && !bytes.Equal(out, w.pass0[e]) {
			fail(w.name(), e, fmt.Errorf("%s: tables differ from the in-process regeneration", r.Name))
			p.failed++
		}
	}
	if thorough {
		w.replayHost, _ = start.host(pl.Workers())
	}
	return p.attempted, p.failed
}

// layers reports the two same-round pairs only a suite can measure.
func (w *suiteWL) layers(m map[string]float64) {
	if w.replayHost == 0 || w.pass0Host == 0 {
		return
	}
	if w.viaDist {
		m["dist.overhead_ratio"] = w.pass0Host.Seconds() / w.replayHost.Seconds()
	} else {
		m["campaign.pool_speedup_x"] = w.replayHost.Seconds() / w.pass0Host.Seconds()
	}
}

// workerMain is the process suite_dist spawns: it walks the coordinator's
// grid sequence — the warm-up experiment, then pass after pass — serving
// leased cells until the coordinator shuts the campaign down. Stdout
// carries the dist protocol and nothing else.
func workerMain(seed uint64, quick bool) int {
	runtime.GOMAXPROCS(1)
	rw := struct {
		io.Reader
		io.Writer
	}{os.Stdin, os.Stdout}
	wk, err := dist.NewWorker(rw, fmt.Sprintf("bench-worker-%d", os.Getpid()))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench worker:", err)
		return 1
	}
	serve := dist.WorkerRunGrid(wk, pool.New(1))
	run := func(r experiments.Runner, opt experiments.Options) error {
		opt.RunGrid = serve
		_, err := r.Run(opt)
		return err
	}
	all := experiments.All()
	err = run(all[0], warmupOptions(seed, quick))
	for p := 0; err == nil; p++ {
		for _, r := range all {
			if err = run(r, suiteOptions(seed, p, quick)); err != nil {
				break
			}
		}
	}
	if errors.Is(err, dist.ErrShutdown) {
		return 0
	}
	fmt.Fprintln(os.Stderr, "bench worker:", err)
	return 1
}
