package network

import (
	"testing"

	"ripple/internal/fault"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

// tcpPathConfig is TCP on the Fig. 1 topology through a scheme that does
// not hide reordering from it: on each ROUTE0 path one FTP flow and two web
// flows, on a radio with bit errors. ExOR's caching forwarders contend
// independently, so segments overtake each other and the connection lives
// in dupacks, fast retransmit and partial ACKs — the TCP window's
// out-of-order bookkeeping, which RIPPLE's resequencer keeps every other
// pinned run away from.
func tcpPathConfig(kind SchemeKind) Config {
	rc := radio.DefaultConfig()
	rc.BitErrorRate = 1e-5
	var flows []FlowSpec
	for g, p := range routing.Route0().Flows() {
		flows = append(flows,
			FlowSpec{ID: g*3 + 1, Path: p, Kind: FTP},
			FlowSpec{ID: g*3 + 2, Path: p, Kind: Web, Start: 10 * sim.Millisecond},
			FlowSpec{ID: g*3 + 3, Path: p, Kind: Web, Start: 30 * sim.Millisecond})
	}
	return Config{
		Positions: topology.Fig1().Positions,
		Radio:     rc,
		Scheme:    kind,
		Flows:     flows,
		Duration:  3 * sim.Second,
		Seed:      17,
	}
}

// tcpRTSConfig is tcpPathConfig through DCF with the RTS/CTS handshake:
// data frames (1000-byte segments) go through it, TCP ACKs (40 bytes) do
// not, so the post-CTS data frame is parked on the station and sent by a
// delayed transmission, beside plain SIFS-delayed MAC ACKs. With churn,
// crashes catch stations with a data frame parked or a delayed
// transmission pending.
func tcpRTSConfig(churn bool) Config {
	cfg := tcpPathConfig(DCF)
	cfg.RTSThreshold = 500
	if churn {
		cfg.Faults = fault.Spec{MTBF: 300 * sim.Millisecond, MTTR: 100 * sim.Millisecond, Epoch: 200 * sim.Millisecond}
	}
	return cfg
}

// TestTCPPathRunsPinned holds the TCP runs to their pins.
func TestTCPPathRunsPinned(t *testing.T) { runPins(t, "tcp") }

func tcpExercised(t *testing.T, cfg Config, res *Result) {
	var reordered bool
	var transfers int64
	for _, f := range res.Flows {
		reordered = reordered || f.ReorderRate > 0
		transfers += f.Transfers
	}
	if transfers == 0 {
		t.Fatal("no web transfer completed: the connection-reset path is not exercised")
	}
	if cfg.Scheme != DCF && !reordered {
		t.Fatal("no segment arrived out of order: the dupack path is not exercised")
	}
	if cfg.Scheme == DCF && res.MAC.TxFrames < 3*res.MAC.TxData {
		t.Fatalf("%d frames for %d data frames: the RTS/CTS handshake is not exercised",
			res.MAC.TxFrames, res.MAC.TxData)
	}
	if cfg.Faults.Active() {
		crashExercised(t, cfg, res)
	}
}
