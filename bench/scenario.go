package main

import (
	"bytes"
	"fmt"
	"time"

	"ripple/internal/network"
)

// scenarioWL drives a single-scenario workload: a closed loop of
// network.Run calls, one at a time, on one shared prebuilt World.
type scenarioWL struct {
	spec scenarioSpec
	o    runOpts
	cfg  network.Config // the generated config, normalised, with World attached
	op0  []byte         // canonical result of op 0, for the replay check
}

func (w *scenarioWL) name() string      { return w.spec.name }
func (w *scenarioWL) digestPasses() int { return w.spec.digestOps }
func (w *scenarioWL) close()            { w.cfg.World = nil }

func (w *scenarioWL) probeConfig() network.Config { return w.cfg }
func (w *scenarioWL) layers(map[string]float64)   {}

func (w *scenarioWL) setup(tr *tracer) error {
	defer tr.start("setup", -1)()
	end := tr.start("topology.gen", -1)
	cfg := w.spec.config(w.o.seed, w.o.quick)
	cfg.Normalize()
	end()
	end = tr.start("network.BuildWorld", -1)
	world, err := network.BuildWorld(cfg)
	end()
	if err != nil {
		return err
	}
	cfg.World = world
	w.cfg = cfg
	return nil
}

// runOp is one guarded network.Run. A panic — the always-on pool
// conservation audit panics on imbalance — is an op failure, not a crash
// of the benchmark.
func runOp(cfg network.Config) (res *network.Result, host time.Duration, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	start := mark()
	res, err = network.Run(cfg)
	host, _ = start.host(1)
	return res, host, err
}

func (w *scenarioWL) warmup() error {
	cfg := w.cfg
	cfg.Seed = derive(w.o.seed, tagWarmup)
	_, _, err := runOp(cfg)
	return err
}

// op runs op i and checks its output; the returned bytes are nil when the
// op failed.
func (w *scenarioWL) op(i int, tr *tracer) (*network.Result, time.Duration, []byte) {
	defer tr.start("op", i)()
	cfg := w.cfg
	cfg.Seed = derive(w.o.seed, tagRun+uint64(i))
	end := tr.start("network.Run", i)
	res, host, err := runOp(cfg)
	end()
	var out []byte
	if err == nil {
		limit := len(cfg.Positions) * (cfg.Phy.QueueLimit + cfg.RippleOpts.MaxAgg)
		out, err = checkResult(res, w.spec.faulty, limit)
	}
	if err != nil {
		fail(w.name(), i, err)
		return nil, host, nil
	}
	return res, host, out
}

func (w *scenarioWL) pass(i int, tr *tracer, counts *tally) passOut {
	res, host, out := w.op(i, tr)
	p := passOut{host: host, lanes: 1, opMs: []float64{float64(host.Nanoseconds()) / 1e6}, attempted: 1}
	if out == nil {
		p.failed = 1
		return p
	}
	p.events, p.simS, p.runs, p.output = res.Events, res.Duration.Seconds(), 1, out
	if counts != nil {
		counts.ops++
		counts.addCell([]*network.Result{res})
	}
	if i == 0 {
		w.op0 = out
	}
	return p
}

// replay runs op 0 again: the same (config, seed) must give the same
// bytes.
func (w *scenarioWL) replay(bool) (attempted, failed int) {
	_, _, out := w.op(0, nil)
	if out == nil {
		return 1, 1
	}
	if !bytes.Equal(out, w.op0) {
		fail(w.name(), 0, fmt.Errorf("replay of the same (config, seed) gave a different result"))
		return 1, 1
	}
	return 1, 0
}
