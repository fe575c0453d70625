package ripple_test

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ripple"
)

// distCampaign is the campaign both the test and its re-exec'd workers
// construct: two scenarios, two seeds each, small enough to finish fast
// but with distinct per-flow results worth comparing.
func distCampaign() ripple.Campaign {
	mk := func(scheme ripple.Scheme) ripple.Scenario {
		top, path := ripple.LineTopology(3)
		sc := ripple.Scenario{
			Topology: top,
			Scheme:   scheme,
			Flows:    []ripple.Flow{{ID: 1, Path: path, Traffic: ripple.FTP{}}},
			Seeds:    []uint64{1, 2},
			Duration: 300 * ripple.Millisecond,
		}
		// The noisy variant has the same shape — stations, flows, scheme,
		// duration, seeds — and differs in one parameter only. Workers
		// inherit the variable, so they build the same variant.
		if os.Getenv(noisyEnv) != "" {
			sc.Radio = ripple.DefaultRadio().WithBER(1e-4)
		}
		return sc
	}
	return ripple.Campaign{Scenarios: []ripple.Scenario{
		mk(ripple.SchemeDCF), mk(ripple.SchemeRIPPLE),
	}}
}

// noisyEnv selects distCampaign's noisy variant in a test and the worker
// processes it spawns.
const noisyEnv = "DIST_TEST_NOISY_VARIANT"

// TestDistributeWorkerHelper is not a test: it is the program the
// spawned workers run (the standard re-exec helper pattern). With
// WorkerEnv set, Distribute serves leased runs on stdin/stdout and exits
// the process; without it, the helper is skipped.
func TestDistributeWorkerHelper(t *testing.T) {
	if os.Getenv(ripple.WorkerEnv) == "" {
		t.Skip("helper process for TestDistributeEqualsRunBatch")
	}
	distCampaign().Distribute(ripple.DistributeOptions{}) // never returns
}

// TestDistributeEqualsRunBatch is the public API's correctness bar:
// distributing a campaign over two spawned worker processes returns
// results deeply equal to RunBatch in-process.
func TestDistributeEqualsRunBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	c := distCampaign()
	want, err := ripple.RunBatch(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Distribute(ripple.DistributeOptions{
		Workers:    2,
		WorkerArgs: []string{"-test.run=TestDistributeWorkerHelper"},
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("distributed results differ from RunBatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestDistributeCheckpointRoundTrip drives the public checkpoint path:
// a first distributed run writes the file; a resumed run restores every
// cell from it (no worker executes anything) and returns equal results.
func TestDistributeCheckpointRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	c := distCampaign()
	want, err := ripple.RunBatch(c)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.json")
	opts := ripple.DistributeOptions{
		Workers:    1,
		WorkerArgs: []string{"-test.run=TestDistributeWorkerHelper"},
		Checkpoint: path,
	}
	first, err := c.Distribute(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, want) {
		t.Error("first distributed run differs from RunBatch")
	}
	opts.Resume = true
	resumed, err := c.Distribute(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, want) {
		t.Error("resumed run differs from RunBatch")
	}
}

// TestDistributeResumeIgnoresForeignCheckpoint: a checkpoint written by a
// campaign of the same shape under another parameter (here the BER) must
// not be restored into this one. The fingerprint covers the parameters,
// so the resumed run finds nothing of its own in the file, runs every
// cell, and returns its own results — not the file's, and not a mix.
func TestDistributeResumeIgnoresForeignCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	opts := ripple.DistributeOptions{
		Workers:    1,
		WorkerArgs: []string{"-test.run=TestDistributeWorkerHelper"},
		Checkpoint: filepath.Join(t.TempDir(), "ckpt.json"),
	}
	clear, err := distCampaign().Distribute(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(noisyEnv, "1")
	want, err := ripple.RunBatch(distCampaign())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(want, clear) {
		t.Fatal("the noisy variant does not change the results; the test shows nothing")
	}
	opts.Resume = true
	var mu sync.Mutex
	var log strings.Builder
	opts.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(&log, format+"\n", args...)
	}
	got, err := distCampaign().Distribute(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed over a foreign checkpoint:\ngot  %+v\nwant %+v", got, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(log.String(), "not among the 1 grids of checkpoint") {
		t.Errorf("the unmatched checkpoint went unreported:\n%s", log.String())
	}
}

// crashCkptEnv carries the checkpoint path to the coordinator process of
// TestDistributeResumesFromWALAfterCrash.
const crashCkptEnv = "DIST_TEST_CRASH_CKPT"

// TestDistributeCrashingCoordinatorHelper is not a test: it is the
// coordinator process of TestDistributeResumesFromWALAfterCrash, which dies
// inside Distribute on the RIPPLE_DIST_CRASH_AFTER hook. The workers it
// spawns inherit the variable and run TestDistributeWorkerHelper.
func TestDistributeCrashingCoordinatorHelper(t *testing.T) {
	path := os.Getenv(crashCkptEnv)
	if path == "" || os.Getenv(ripple.WorkerEnv) != "" {
		t.Skip("helper process for TestDistributeResumesFromWALAfterCrash")
	}
	_, err := distCampaign().Distribute(ripple.DistributeOptions{
		Workers:    1,
		WorkerArgs: []string{"-test.run=TestDistributeWorkerHelper"},
		Checkpoint: path,
	})
	t.Fatalf("Distribute returned (%v): the crash hook did not fire", err)
}

// TestDistributeResumesFromWALAfterCrash: a coordinator that hard-crashes
// after two delivered runs counted — far below the journal size at which a
// first snapshot is taken, so none was ever written — loses neither of
// them. The public API journals every delivered run beside the checkpoint,
// and a Resume with no checkpoint file yet starts from the journal alone:
// what it holds is replayed — the two runs that counted and any the crash
// interrupted the counting of, journalled in the same batch, as many as the
// crash hook says the journal holds — only the rest execute, and the
// results equal RunBatch's.
func TestDistributeResumesFromWALAfterCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	c := distCampaign()
	want, err := ripple.RunBatch(c)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.json")
	crash := exec.Command(os.Args[0], "-test.run=TestDistributeCrashingCoordinatorHelper")
	crash.Env = append(os.Environ(), crashCkptEnv+"="+path, "RIPPLE_DIST_CRASH_AFTER=2")
	out, err := crash.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 42 {
		t.Fatalf("coordinator process: %v, want the crash hook's exit 42\n%s", err, out)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a checkpoint exists after the crash (%v): the test no longer resumes from the journal alone", err)
	}
	held := regexp.MustCompile(`reached with (\d+) cells of grid \S+ in the journal`).FindSubmatch(out)
	if held == nil {
		t.Fatalf("the crash hook did not say how many cells the journal holds:\n%s", out)
	}
	journalled, _ := strconv.Atoi(string(held[1]))
	if journalled < 2 {
		t.Fatalf("the crash hook fired with %d cells in the journal, want at least the 2 counted:\n%s", journalled, out)
	}

	var mu sync.Mutex
	var log strings.Builder
	got, err := c.Distribute(ripple.DistributeOptions{
		Workers:    1,
		WorkerArgs: []string{"-test.run=TestDistributeWorkerHelper"},
		Checkpoint: path,
		Resume:     true,
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(&log, format+"\n", args...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed results differ from RunBatch:\ngot  %+v\nwant %+v", got, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := fmt.Sprintf("replayed %d cells from WAL", journalled); !strings.Contains(log.String(), want) {
		t.Errorf("the resume did not report %q:\n%s", want, log.String())
	}
}

func TestDistributeValidates(t *testing.T) {
	if _, err := distCampaign().Distribute(ripple.DistributeOptions{}); err == nil {
		t.Error("Workers = 0 accepted")
	}
	if res, err := (ripple.Campaign{}).Distribute(ripple.DistributeOptions{}); err != nil || res != nil {
		t.Errorf("empty campaign: %v, %v", res, err)
	}
}
