// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-run name[,name...]] [-seeds n] [-dur seconds] [-quick]
//	            [-parallel n] [-json] [-ablations] [-scaling]
//	            [-workers n] [-listen addr] [-ckpt file | -resume file]
//	            [-supervise]
//	            [-worker | -connect addr]
//
// With no -run flag every experiment runs in paper order. Every scenario
// cell of every experiment is scheduled on one bounded worker pool
// (GOMAXPROCS workers unless -parallel says otherwise); the numbers are
// identical for any -parallel value. Results print as aligned text tables
// whose rows mirror the paper's figures — with more than one seed each
// cell carries a 95% confidence half-width — or, with -json, as a JSON
// array of tables. Progress streams to stderr.
//
// Distributed execution (docs/distributed.md): -workers n spawns n local
// worker processes and shards every grid across them; -listen also (or
// instead) accepts remote workers started with -connect addr and the same
// experiment flags. -ckpt persists completed cells and -resume continues
// an interrupted campaign from them: a write-ahead journal (the checkpoint
// path + ".wal") records every delivered cell before it counts, and the
// checkpoint file is that journal's compaction, written when the journal
// has outgrown it and once more at the end — a resume reads both and
// loses nothing. -supervise re-execs the coordinator and auto-resumes
// it after a crash. Cells are granted one at a time; one that stays out
// far longer than its grid's cells have been taking is raced on another
// worker. The tables are bit-identical to a single-process run in every
// mode.
// -worker is the internal stdio worker mode -workers spawns.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ripple/internal/campaign/pool"
	"ripple/internal/dist"
	"ripple/internal/experiments"
	"ripple/internal/sim"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		runList   = flag.String("run", "", "comma-separated experiment names (default: all)")
		seeds     = flag.Int("seeds", 3, "number of seeds to average over")
		durSec    = flag.Float64("dur", 10, "simulated seconds per run")
		quick     = flag.Bool("quick", false, "1 seed, 2 simulated seconds")
		list      = flag.Bool("list", false, "list experiment names and exit")
		ablations = flag.Bool("ablations", false, "include the ablations (docs/model.md)")
		scaling   = flag.Bool("scaling", false, "include the city-scale sweep (minutes of runtime at N=20k)")
		parallel  = flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS)")
		jsonOut   = flag.Bool("json", false, "emit all tables as one JSON array")
		prune     = flag.Float64("prunesigma", -1, "override radio neighbor pruning in shadowing sigmas (0 = exact/unpruned medium, -1 = per-experiment default)")

		workers    = flag.Int("workers", 0, "spawn n local worker processes and distribute grid cells across them")
		listen     = flag.String("listen", "", "accept remote workers on this TCP address (e.g. :9111)")
		ckptPath   = flag.String("ckpt", "", "write a distributed-run checkpoint to this file")
		resumePath = flag.String("resume", "", "resume a distributed run from this checkpoint file")
		workerMode = flag.Bool("worker", false, "worker mode: serve leased cells over stdin/stdout (spawned by -workers)")
		connect    = flag.String("connect", "", "worker mode: serve leased cells to the coordinator at this TCP address")
		reconnect  = flag.Int("reconnect", 3, "with -connect: dials tried per connection outage, capped exponential backoff (1 = fail on first error)")
		supervise  = flag.Bool("supervise", false, "run the coordinator as a supervised child and auto-restart it with -resume after a crash (requires -ckpt or -resume)")
	)
	flag.Parse()
	if *quick {
		// -quick is a run length of its own; a length set beside it would
		// be dropped without a word.
		var set []string
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seeds" || f.Name == "dur" {
				set = append(set, "-"+f.Name)
			}
		})
		if len(set) > 0 {
			fmt.Fprintf(os.Stderr, "-quick and %s are mutually exclusive (-quick is 1 seed, 2 simulated seconds)\n", strings.Join(set, ", "))
			return 2
		}
	}
	dur := sim.Time(*durSec * float64(sim.Second))
	switch {
	case *seeds < 1:
		fmt.Fprintf(os.Stderr, "-seeds %d: need at least one seed\n", *seeds)
		return 2
	case dur <= 0:
		fmt.Fprintf(os.Stderr, "-dur %g: need a positive number of simulated seconds\n", *durSec)
		return 2
	case !(*prune >= 0) && *prune != -1:
		fmt.Fprintf(os.Stderr, "-prunesigma %g: need 0 or more sigmas, or -1 for each experiment's default\n", *prune)
		return 2
	case *parallel < 0 || *workers < 0:
		fmt.Fprintf(os.Stderr, "-parallel %d -workers %d: need 0 (the default) or more of each\n", *parallel, *workers)
		return 2
	case *reconnect < 1:
		fmt.Fprintf(os.Stderr, "-reconnect %d: need at least one dial\n", *reconnect)
		return 2
	}

	isWorker := *workerMode || *connect != ""
	isCoord := *workers > 0 || *listen != ""
	if isWorker && isCoord {
		fmt.Fprintln(os.Stderr, "-worker/-connect and -workers/-listen are mutually exclusive")
		return 2
	}
	if (*ckptPath != "" || *resumePath != "") && !isCoord {
		fmt.Fprintln(os.Stderr, "-ckpt/-resume require -workers or -listen")
		return 2
	}
	if *ckptPath != "" && *resumePath != "" {
		fmt.Fprintln(os.Stderr, "-ckpt and -resume are mutually exclusive (resume keeps writing its file)")
		return 2
	}
	if *supervise {
		if isWorker {
			fmt.Fprintln(os.Stderr, "-supervise and worker mode are mutually exclusive")
			return 2
		}
		if *ckptPath == "" && *resumePath == "" {
			fmt.Fprintln(os.Stderr, "-supervise requires -ckpt or -resume (the restart resumes from it)")
			return 2
		}
		path := *ckptPath
		if path == "" {
			path = *resumePath
		}
		return superviseLoop(path)
	}

	all := experiments.All()
	if *ablations {
		all = append(all, experiments.Ablations()...)
	}
	if *scaling {
		all = append(all, experiments.ScalingRunners()...)
	}
	if *list {
		for _, r := range all {
			fmt.Println(r.Name)
		}
		return 0
	}

	opt := experiments.Options{Duration: dur}
	for s := 1; s <= *seeds; s++ {
		opt.Seeds = append(opt.Seeds, uint64(s))
	}
	if *quick {
		opt = experiments.Quick()
	}
	if *prune != -1 {
		opt.PruneSigma = prune
	}
	if *parallel > 0 {
		// Every experiment's grid drains through this one pool.
		opt.Pool = pool.New(*parallel)
	}

	if isWorker {
		name := fmt.Sprintf("worker-%d", os.Getpid())
		var rw io.ReadWriter = struct {
			io.Reader
			io.Writer
		}{os.Stdin, os.Stdout}
		var closeConn func()
		if *connect != "" {
			w, err := dist.DialReconnect(*connect, name, dist.RedialOptions{
				Attempts: *reconnect,
				Logf:     func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			closeConn = func() { w.Close() }
			opt.RunGrid = dist.WorkerRunGrid(w, opt.Pool)
		} else {
			// Stdout carries the protocol stream, so nothing else in this
			// process may print to it.
			w, err := dist.NewWorker(rw, name)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			opt.RunGrid = dist.WorkerRunGrid(w, opt.Pool)
		}
		defer func() {
			if closeConn != nil {
				closeConn()
			}
		}()
	}

	var coord *dist.Coordinator
	var workerSet *dist.WorkerSet
	var wal *dist.WAL
	if isCoord {
		var ck *dist.Checkpoint
		var err error
		path, resume := *ckptPath, false
		if *resumePath != "" {
			path, resume = *resumePath, true
		}
		if path != "" {
			if ck, wal, err = dist.OpenPersistence(path, resume); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		coord = dist.NewCoordinator(dist.Options{
			Checkpoint: ck,
			WAL:        wal,
			Logf:       func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
		})
		opt.RunGrid = dist.CoordinatorRunGrid(coord)
		if *listen != "" {
			addr, stop, err := dist.Listen(coord, *listen)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			defer stop()
			fmt.Fprintf(os.Stderr, "coordinator listening on %s\n", addr)
		}
		if *workers > 0 {
			// Split the machine between the workers; the coordinator only
			// merges, so it needs no pool of its own.
			per := runtime.GOMAXPROCS(0) / *workers
			if per < 1 {
				per = 1
			}
			// A worker runs the coordinator's command line — same binary,
			// same experiment selection — as a stdio worker with an equal
			// share of the machine's cores.
			argv := append(rewriteArgv(flag.CommandLine, os.Args, workerOnly),
				"-worker", "-parallel", strconv.Itoa(per))
			workerSet, err = dist.SpawnWorkers(coord, *workers, argv, nil)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
	}

	want := map[string]bool{}
	if *runList != "" {
		known := map[string]bool{}
		for _, r := range all {
			known[r.Name] = true
		}
		for _, name := range strings.Split(*runList, ",") {
			name = strings.TrimSpace(name)
			if !known[name] {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list; ablations need -ablations, scaling needs -scaling)\n", name)
				return 2
			}
			want[name] = true
		}
	}

	var out []experiments.Record
	code := 0
	selected := 0
	for _, r := range all {
		if len(want) == 0 || want[r.Name] {
			selected++
		}
	}
	done := 0
	for _, r := range all {
		if len(want) > 0 && !want[r.Name] {
			continue
		}
		done++
		// Progress lines are \r-rewritten; pad to the longest line printed
		// so far so a shorter line fully overwrites a longer one. Workers
		// stay quiet: their stderr is interleaved with the coordinator's.
		lineLen := 0
		status := func(format string, args ...any) {
			if isWorker {
				return
			}
			line := fmt.Sprintf("[%d/%d] %s", done, selected, r.Name) + fmt.Sprintf(format, args...)
			if pad := lineLen - len(line); pad > 0 {
				line += strings.Repeat(" ", pad)
			} else {
				lineLen = len(line)
			}
			fmt.Fprintf(os.Stderr, "\r%s", line)
		}
		status("")
		ropt := opt
		if !isWorker {
			ropt.Progress = func(d, total int) { status(": %d/%d runs", d, total) }
		}
		start := time.Now()
		tables, err := r.Run(ropt)
		if err != nil {
			status(" failed after %.1fs", time.Since(start).Seconds())
			fmt.Fprintf(os.Stderr, "\nexperiment %s: %v\n", r.Name, err)
			code = 1
			if isWorker {
				// A worker can't continue past a failed grid: it would be
				// out of step with the coordinator's grid sequence.
				return 1
			}
			continue
		}
		status(" done in %.1fs", time.Since(start).Seconds())
		if isWorker {
			continue // tables are placeholders; the protocol stream is the output
		}
		fmt.Fprintln(os.Stderr)
		if *jsonOut {
			out = append(out, experiments.Record{Experiment: r.Name, Tables: tables})
			continue
		}
		for _, t := range tables {
			fmt.Println(t.Format())
		}
	}
	if coord != nil {
		// The campaign is over: release workers blocked on their next
		// lease request and bring the checkpoint up to date — the journal
		// may be closed only after that — then collect the spawned
		// processes.
		coord.Close()
		if wal != nil {
			wal.Close()
		}
		if workerSet != nil {
			if err := workerSet.Wait(); err != nil {
				fmt.Fprintf(os.Stderr, "%v\n", err)
				code = 1
			}
		}
	}
	if *jsonOut && !isWorker {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return code
}

// workerOnly lists the flags a spawned worker must not inherit from the
// coordinator's command line: coordinator-only and output flags.
var workerOnly = map[string][]string{
	"workers": nil, "listen": nil, "ckpt": nil, "resume": nil,
	"parallel": nil, "json": nil, "worker": nil, "connect": nil,
	"supervise": nil,
}

// rewriteArgv copies a command line (args[0] is the program) with every
// flag named in swap replaced by the arguments swap gives for it — none
// drops the flag. A replaced flag takes its value with it, attached
// (-f=v) or detached (-f v); whether a flag has a detached value is the
// flag package's answer for the flag as fs defines it, so a boolean flag
// never swallows the argument after it. As in flag parsing, the first
// non-flag argument and everything after it is positional and copied as is.
func rewriteArgv(fs *flag.FlagSet, args []string, swap map[string][]string) []string {
	out := []string{args[0]}
	for i := 1; i < len(args); i++ {
		a := args[i]
		if len(a) < 2 || a[0] != '-' || a == "--" {
			return append(out, args[i:]...)
		}
		name, _, attached := strings.Cut(strings.TrimLeft(a, "-"), "=")
		with, swapped := swap[name]
		if swapped {
			out = append(out, with...)
		} else {
			out = append(out, a)
		}
		if attached || i+1 == len(args) {
			continue
		}
		if f := fs.Lookup(name); f != nil {
			if b, ok := f.Value.(interface{ IsBoolFlag() bool }); ok && b.IsBoolFlag() {
				continue
			}
		}
		i++ // the flag's detached value goes where the flag went
		if !swapped {
			out = append(out, args[i])
		}
	}
	return out
}

// superviseLoop re-execs this binary as a coordinator child (same argv
// minus -supervise) and restarts it after a crash, rewriting -ckpt to
// -resume so the restart picks up the checkpoint plus WAL instead of
// starting over (an argv already using -resume is restarted as it is).
// ckptPath is the checkpoint file the restarts resume from. Each
// incarnation's stdout (the result tables) is buffered and only the last
// one's — the incarnation whose exit code propagates — is emitted, so a
// crashed incarnation's partial output never reaches the pipeline.
//
// An exit code that propagates ends the loop. Anything else is treated as a
// crash; a progress gate over the checkpoint+WAL state hash gives up after two
// consecutive restarts that recovered nothing new, so a crash loop
// cannot spin forever.
func superviseLoop(ckptPath string) int {
	argv := rewriteArgv(flag.CommandLine, os.Args, map[string][]string{"supervise": nil})
	resumed := false
	noProgress := 0
	lastState := superviseStateHash(ckptPath)
	for {
		child := argv
		if resumed {
			child = rewriteArgv(flag.CommandLine, argv, map[string][]string{"ckpt": {"-resume", ckptPath}})
		}
		code, err := superviseOnce(child, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if propagates(code) {
			return code
		}
		state := superviseStateHash(ckptPath)
		if state == lastState {
			noProgress++
			if noProgress >= 2 {
				fmt.Fprintf(os.Stderr,
					"supervise: coordinator crashed (exit %d) with no progress %d times, giving up\n",
					code, noProgress)
				return 1
			}
		} else {
			noProgress = 0
			lastState = state
		}
		fmt.Fprintf(os.Stderr, "supervise: coordinator crashed (exit %d), restarting with -resume %s\n",
			code, ckptPath)
		resumed = true
	}
}

// propagates reports an exit code no restart can fix: done, deterministic
// failure, usage error.
func propagates(code int) bool { return code >= 0 && code <= 2 }

// superviseOnce runs one incarnation of the child and returns its exit
// code. The child's stdout goes to a temp file that lives as long as the
// incarnation: it is copied to out when the code propagates, discarded
// otherwise, and removed either way.
func superviseOnce(argv []string, out io.Writer) (code int, err error) {
	tmp, err := os.CreateTemp("", "experiments-stdout-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name())
	defer tmp.Close()
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout = tmp
	cmd.Stderr = os.Stderr
	if runErr := cmd.Run(); runErr != nil {
		ee, ok := runErr.(*exec.ExitError)
		if !ok {
			return 0, runErr
		}
		code = ee.ExitCode()
	}
	if propagates(code) {
		if _, err := tmp.Seek(0, io.SeekStart); err == nil {
			io.Copy(out, tmp)
		}
	}
	return code, nil
}

// superviseStateHash fingerprints the checkpoint and WAL contents; a
// restart that changes neither recovered nothing, and two such restarts
// in a row stop the supervisor.
func superviseStateHash(ckptPath string) string {
	h := sha256.New()
	for _, p := range []string{ckptPath, ckptPath + ".wal"} {
		data, err := os.ReadFile(p)
		if err != nil {
			data = nil // missing file hashes as empty
		}
		fmt.Fprintf(h, "%d:", len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
