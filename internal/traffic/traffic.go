// Package traffic provides the workload generators of the paper's
// evaluation: long-lived FTP transfers (§IV-A), ON/OFF web traffic with
// Pareto transfer sizes (§IV-D), and helpers shared by the experiment
// harness. The VoIP and CBR sources live in package transport since they
// are transports of their own.
package traffic

import (
	"cmp"
	"math"

	"ripple/internal/sim"
	"ripple/internal/transport"
)

// WebConfig models the paper's short-transfer workload: transfer sizes
// follow a Pareto distribution, OFF (reading) periods are exponential. A
// zero field selects the paper's value (Normalize); a negative or NaN
// field is refused (Check).
type WebConfig struct {
	MeanTransferBytes float64
	ParetoShape       float64
	OffMean           sim.Time
}

// Normalize fills each zero field with §IV-D's value: a mean transfer of
// 80 KB, Pareto shape 1.5, and a mean reading period of one second.
func (c *WebConfig) Normalize() {
	c.MeanTransferBytes = cmp.Or(c.MeanTransferBytes, 80e3)
	c.ParetoShape = cmp.Or(c.ParetoShape, 1.5)
	c.OffMean = cmp.Or(c.OffMean, sim.Second)
}

// Check passes the first field out of range to bad — its name, its value
// and the rule it breaks — and returns bad's error, or nil. It judges c as
// Init runs it, normalised: the mean transfer size may not be negative or
// NaN, nor the think time negative, and the Pareto shape must exceed 1 for
// the mean to exist.
func (c WebConfig) Check(bad func(field string, value any, rule string) error) error {
	c.Normalize()
	switch {
	case !(c.MeanTransferBytes >= 0):
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
	off  sim.Timer // the reading period between transfers, bound to launch
	done func()    // ends a transfer: bound to read, handed to every transfer
}

// Init makes w, in place, the generator over an existing TCP connection,
// whose MSS turns transfer sizes into packets: every field zero or set from
// the arguments (cfg normalised), except the timer and the completion
// callback, which stay bound when w was initialised before — at this
// address, on this engine, Reset since.
func (w *Web) Init(eng *sim.Engine, cfg WebConfig, tcp *transport.TCP, rng *sim.RNG) {
	cfg.Normalize()
	if !w.off.Bound() {
		w.off.Bind(eng, w.launch)
		w.done = w.read
	}
	*w = Web{cfg: cfg, tcp: tcp, rng: rng, off: w.off, done: w.done}
}

// Start launches the first transfer.
func (w *Web) Start() { w.launch() }

func (w *Web) launch() {
	size := w.rng.ParetoWithMean(w.cfg.ParetoShape, w.cfg.MeanTransferBytes)
	pkts := int64(math.Ceil(size / float64(w.tcp.MSS())))
	if pkts < 1 {
		pkts = 1
	}
	w.tcp.StartTransfer(pkts, w.done)
}

// read starts the reading period after a transfer.
func (w *Web) read() { w.off.Arm(sim.Time(w.rng.Exp(float64(w.cfg.OffMean)))) }
