package network

import (
	"runtime"
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

// tcpPathResultDigests pins the sha256 of each run's Result JSON, recorded at
// commit c41ae10 (TCP window in maps, frames allocated per transmission).
var tcpPathResultDigests = map[string]string{
	"MCExOR":        "26a30addc0f8ac03c363c13fa1851df50a919fc37406b1afcddf894276b456c3",
	"PreExOR":       "19865ef17b2f29a9ef20ef75fb16c7492776ce8f69f920acb15b2259239c27fb",
	"DCF/RTS":       "110b5b865bee73b2a750eab2430b4a04ee3afd63f8cda880f8ed86e4623fb524",
	"DCF/RTS/churn": "dc6a9da0563256b01a68227c06299432902fd766906343b6c3a6576e047624be",
}

func TestTCPPathRunsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are amd64 values: other targets may fuse float operations differently")
	}
	// Data frames (1000-byte segments) go through the RTS/CTS handshake, TCP
	// ACKs (40 bytes) do not: the post-CTS data frame is parked on the station
	// and sent by a delayed transmission, beside plain SIFS-delayed MAC ACKs.
	rts := tcpPathConfig(DCF)
	rts.RTSThreshold = 500
	// The same under station churn: crashes catch stations with a data frame
	// parked or a delayed transmission pending.
	churn := rts
	churn.Faults = fault.Spec{MTBF: 300 * sim.Millisecond, MTTR: 100 * sim.Millisecond, Epoch: 200 * sim.Millisecond}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"MCExOR", tcpPathConfig(MCExOR)},
		{"PreExOR", tcpPathConfig(PreExOR)},
		{"DCF/RTS", rts},
		{"DCF/RTS/churn", churn},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var reordered bool
			var transfers int64
			for _, f := range res.Flows {
				reordered = reordered || f.ReorderRate > 0
				transfers += f.Transfers
			}
			if transfers == 0 {
				t.Fatal("no web transfer completed: the connection-reset path is not exercised")
			}
			if c.cfg.Scheme != DCF && !reordered {
				t.Fatal("no segment arrived out of order: the dupack path is not exercised")
			}
			if c.cfg.Scheme == DCF && res.MAC.TxFrames < 3*res.MAC.TxData {
				t.Fatalf("%d frames for %d data frames: the RTS/CTS handshake is not exercised",
					res.MAC.TxFrames, res.MAC.TxData)
			}
			if c.cfg.Faults.Active() && res.MAC.CrashDrops == 0 {
				t.Fatal("churn never caught a station holding packets")
			}
			checkResultDigest(t, res, tcpPathResultDigests[c.name])
		})
	}
}
