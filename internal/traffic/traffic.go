// Package traffic provides the workload generators of the paper's
// evaluation: long-lived FTP transfers (§IV-A), ON/OFF web traffic with
// Pareto transfer sizes (§IV-D), and helpers shared by the experiment
// harness. The VoIP and CBR sources live in package transport since they
// are transports of their own.
package traffic

import (
	"math"

	"ripple/internal/sim"
	"ripple/internal/transport"
)

// WebConfig models the paper's short-transfer workload: transfer sizes
// follow a Pareto distribution with mean 80 KB and shape 1.5; OFF (reading)
// periods are exponential with mean one second.
type WebConfig struct {
	MeanTransferBytes float64
	ParetoShape       float64
	OffMean           sim.Time
}

// DefaultWebConfig returns §IV-D's parameters.
func DefaultWebConfig() WebConfig {
	return WebConfig{MeanTransferBytes: 80e3, ParetoShape: 1.5, OffMean: sim.Second}
}

// Check passes the first field out of range to bad — its name, its value
// and the rule it breaks — and returns bad's error, or nil: the mean
// transfer size and think time may not be negative, and the Pareto shape
// must exceed 1 for the mean to exist.
func (c WebConfig) Check(bad func(field string, value any, rule string) error) error {
	switch {
	case c.MeanTransferBytes < 0:
		return bad("MeanTransferBytes", c.MeanTransferBytes, "must not be negative")
	case !(c.ParetoShape > 1):
		return bad("ParetoShape", c.ParetoShape, "must exceed 1")
	case c.OffMean < 0:
		return bad("OffMean", c.OffMean, "must not be negative")
	}
	return nil
}

// Web drives one TCP connection through an endless ON/OFF transfer cycle.
type Web struct {
	cfg  WebConfig
	tcp  *transport.TCP
	rng  *sim.RNG
	mss  int
	stop bool
	off  sim.Timer // the reading period between transfers, bound to launch
	done func()    // ends a transfer: bound to read, handed to every transfer
}

// NewWeb creates the generator over an existing TCP connection.
func NewWeb(eng *sim.Engine, cfg WebConfig, tcp *transport.TCP, mss int, rng *sim.RNG) *Web {
	w := &Web{}
	w.Init(eng, cfg, tcp, mss, rng)
	return w
}

// Init makes w, in place, the generator NewWeb returns: every field zero or
// set from the arguments, except the timer and the completion callback,
// which stay bound when w was initialised before — at this address, on this
// engine, Reset since.
func (w *Web) Init(eng *sim.Engine, cfg WebConfig, tcp *transport.TCP, mss int, rng *sim.RNG) {
	if !w.off.Bound() {
		w.off.Bind(eng, w.launch)
		w.done = w.read
	}
	*w = Web{cfg: cfg, tcp: tcp, rng: rng, mss: mss, off: w.off, done: w.done}
}

// Start launches the first transfer.
func (w *Web) Start() { w.launch() }

// Stop ends the cycle after the current transfer.
func (w *Web) Stop() { w.stop = true }

func (w *Web) launch() {
	if w.stop {
		return
	}
	size := w.rng.ParetoWithMean(w.cfg.ParetoShape, w.cfg.MeanTransferBytes)
	pkts := int64(math.Ceil(size / float64(w.mss)))
	if pkts < 1 {
		pkts = 1
	}
	w.tcp.StartTransfer(pkts, w.done)
}

// read starts the reading period after a transfer.
func (w *Web) read() { w.off.Arm(sim.Time(w.rng.Exp(float64(w.cfg.OffMean)))) }
