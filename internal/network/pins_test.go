package network

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ripple/internal/golden"
	"ripple/internal/trace"
)

// pinDir holds one pin file per case of pinCases, and the ledger.
const pinDir = "testdata/pins"

// pinCase is one pinned scenario: a run whose whole Result — and, traced,
// the summary of its JSONL trace — is held byte for byte to its pin file.
// check says whether the run is worth pinning: that it reaches what its
// group exists to hold.
type pinCase struct {
	group, name string
	cfg         Config
	traced      bool // record the JSONL trace and pin its summary too
	check       func(t *testing.T, cfg Config, res *Result)
}

func (c pinCase) file() string {
	return filepath.Join(pinDir, strings.ReplaceAll(c.name, "/", "_")+".json")
}

// pinCases is the corpus: every scenario a test holds to its pin, each in
// the group whose test runs it (runPins).
func pinCases() []pinCase {
	var cases []pinCase
	add := func(group, name string, cfg Config, check func(*testing.T, Config, *Result)) {
		cases = append(cases, pinCase{group: group, name: name, cfg: cfg, check: check})
	}
	for _, kind := range allKinds {
		add("churn", "churn/"+kind.String(), churnConfig(kind), crashExercised)
	}
	for _, k := range []struct {
		name string
		kind SchemeKind
	}{{"Ripple", Ripple}, {"MCExOR", MCExOR}, {"DCF", DCF}, {"AFR", AFR}, {"PreExOR", PreExOR}} {
		add("fanout", "city/"+k.name, fanoutCityConfig(k.kind), cityExercised)
	}
	// No crash of this run catches a station holding packets: it pins the
	// link veto alone.
	add("fanout", "city/RippleNoAgg", fanoutCityConfig(RippleNoAgg), vetoExercised)
	add("fanout", "hidden", fanoutHiddenConfig(), hiddenExercised)
	add("fanorder", "grid/Ripple", orderGridConfig(Ripple), gridExercised)
	add("fanorder", "grid/DCF", orderGridConfig(DCF), gridExercised)
	add("fanorder", "grid/MCExOR", orderGridConfig(MCExOR), gridExercised)
	add("fanorder", "grid/Ripple/localagg", localAggConfig(), localAggExercised)
	add("fanorder", "cut", cutConfig(), nil)
	add("fanorder", "colocated/Ripple", colocatedConfig(Ripple, 0), nil)
	add("fanorder", "colocated/AFR/pruned", colocatedConfig(AFR, 6), nil)
	add("fanorder", "swapcrash/Ripple", swapCrashConfig(Ripple, 0), crashExercised)
	add("fanorder", "swapcrash/PreExOR/pruned", swapCrashConfig(PreExOR, 6), crashExercised)
	add("tcp", "tcp/MCExOR", tcpPathConfig(MCExOR), tcpExercised)
	add("tcp", "tcp/PreExOR", tcpPathConfig(PreExOR), tcpExercised)
	add("tcp", "tcp/DCF/RTS", tcpRTSConfig(false), tcpExercised)
	add("tcp", "tcp/DCF/RTS/churn", tcpRTSConfig(true), tcpExercised)
	for _, layout := range []string{"unpruned", "pruned"} {
		for _, mob := range []MobilityKind{MobilityWaypoint, MobilityMarkov} {
			for _, rt := range worldPinRoutes {
				add("world", fmt.Sprintf("world/%s/%s/%s", layout, mob, rt.name),
					worldPinConfig(layout == "pruned", mob, rt.spec), nil)
				cases[len(cases)-1].traced = true
			}
		}
	}
	return cases
}

// runPins runs group's cases, each as a subtest named by the case less the
// group's prefix, holds each run to its pin file — rewriting the file under
// -update — and returns what it pinned. A traced case is run untraced too:
// the trace hook must not change the Result.
func runPins(t *testing.T, group string) []golden.Pin {
	if runtime.GOARCH != "amd64" {
		t.Skip("pins are amd64 values: other targets may fuse float operations differently")
	}
	var pins []golden.Pin
	for _, c := range pinCases() {
		if c.group != group {
			continue
		}
		t.Run(strings.TrimPrefix(c.name, group+"/"), func(t *testing.T) {
			pin := pinOf(t, nil, c.cfg, false)
			res := pin.Result.(*Result)
			if res.Medium.FramesDelivered == 0 {
				t.Fatal("nothing delivered: the run pins nothing")
			}
			if c.check != nil {
				c.check(t, c.cfg, res)
			}
			if c.traced {
				if pin = pinOf(t, nil, c.cfg, true); !reflect.DeepEqual(pin.Result, res) {
					t.Fatal("installing the trace hook changed the Result")
				}
			}
			golden.Check(t, c.file(), golden.Marshal(t, pin))
			pins = append(pins, pin)
		})
	}
	return pins
}

// pinOf runs cfg on arena r — on the one Run takes, when r is nil — and
// returns what a pin holds of the run.
func pinOf(t *testing.T, r *run, cfg Config, traced bool) golden.Pin {
	t.Helper()
	var tr golden.Trace
	rec := &trace.Recorder{W: &tr}
	if traced {
		cfg.Trace = rec.Hook()
	}
	var res *Result
	var err error
	if r == nil {
		res, err = Run(cfg)
	} else {
		res, err = runOn(r, cfg)
	}
	if err == nil {
		err = rec.Err()
	}
	if err != nil {
		t.Fatal(err)
	}
	pin := golden.Pin{Result: res}
	if traced {
		pin.Trace = tr.Sum()
	}
	return pin
}

// TestPins holds the corpus together: every file in the pin directory is
// some case's, and the ledger has a line for each file's sha256.
func TestPins(t *testing.T) {
	golden.Ledger(t, pinDir)
	files := map[string]bool{golden.LedgerFile: true}
	for _, c := range pinCases() {
		files[filepath.Base(c.file())] = true
	}
	entries, err := os.ReadDir(pinDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !files[e.Name()] {
			t.Errorf("%s pins no case of pinCases", filepath.Join(pinDir, e.Name()))
		}
	}
}
