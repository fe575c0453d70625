package network

import (
	"runtime"
	"testing"

	"ripple/internal/fault"
	"ripple/internal/phys"
	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
)

// The runs below pin the (time, insertion sequence) order of one
// transmission's receptions against everything else on the engine, in the
// places where that order is not simply "row order": rows that are not in
// propagation-delay order, receivers at equal delay, zero delay, a plan
// swapped or a station crashed under frames on the air, and a clock that
// runs out between two receptions of one frame. A pin's Events and
// PendingAtEnd count logical events: a change in what an event is shows as
// those paths in the pin's diff.

// orderGrid is a side×side lattice at the given spacing, station IDs in
// row-major order: from any station many receivers sit at exactly equal
// distance, and an ID-ordered (unpruned) row visits them out of delay
// order.
func orderGrid(side int, spacing float64) []radio.Pos {
	pos := make([]radio.Pos, side*side)
	for i := range pos {
		pos[i] = radio.Pos{X: float64(i%side) * spacing, Y: float64(i/side) * spacing}
	}
	return pos
}

// orderGridConfig runs two crossing saturated flows and a reverse CBR
// stream on an unpruned 6×6 lattice: concurrent transmissions from
// different corners reach the stations between them at equal times, while
// the contenders' slot timers run at every station.
func orderGridConfig(kind SchemeKind) Config {
	rc := radio.DefaultConfig()
	rc.PruneSigma = 0
	rc.BitErrorRate = 1e-6
	return Config{
		Positions: orderGrid(6, 70),
		Radio:     rc,
		Scheme:    kind,
		Flows: []FlowSpec{
			{ID: 1, Path: routing.Path{0, 7, 14, 21}, Kind: FTP},
			{ID: 2, Path: routing.Path{5, 10, 15, 20}, Kind: FTP, Start: sim.Millisecond},
			{ID: 3, Path: routing.Path{35, 28, 21}, Kind: CBRTraffic, CBRInterval: 3 * sim.Millisecond, CBRPacketBytes: 400},
			{ID: 4, Path: routing.Path{30, 25, 20}, Kind: VoIPTraffic},
		},
		Duration: 1500 * sim.Millisecond,
		Seed:     21,
	}
}

// colocatedConfig stacks stations on the same coordinates: each hop of the
// line is a cluster of three stations 0 m apart, so a transmission begins
// at its cluster-mates at the transmit instant itself — the same time as
// the transmitter's own ChannelBusy and the tx-done of a frame that ends
// there.
func colocatedConfig(kind SchemeKind, pruneSigma float64) Config {
	var pos []radio.Pos
	for hop := 0; hop < 4; hop++ {
		for k := 0; k < 3; k++ {
			pos = append(pos, radio.Pos{X: float64(hop) * 90})
		}
	}
	rc := radio.DefaultConfig()
	rc.PruneSigma = pruneSigma
	return Config{
		Positions: pos,
		Radio:     rc,
		Scheme:    kind,
		Flows: []FlowSpec{
			{ID: 1, Path: routing.Path{0, 3, 6, 9}, Kind: FTP},
			{ID: 2, Path: routing.Path{10, 7, 4, 1}, Kind: CBRTraffic, CBRInterval: 2 * sim.Millisecond},
			{ID: 3, Path: routing.Path{2, 5, 8, 11}, Kind: VoIPTraffic},
		},
		Duration: sim.Second,
		Seed:     4,
	}
}

// swapCrashConfig keeps long (low-rate) frames on the air across waypoint
// epoch swaps every 20 ms and a station crash every ~30 ms: receptions
// scheduled under one plan end under the next, and at stations that went
// down in between.
func swapCrashConfig(kind SchemeKind, pruneSigma float64) Config {
	rc := radio.DefaultConfig()
	rc.PruneSigma = pruneSigma
	return Config{
		Positions: orderGrid(5, 80),
		Radio:     rc,
		Phy:       phys.LowRate(),
		Scheme:    kind,
		Flows: []FlowSpec{
			{ID: 1, Path: routing.Path{0, 6, 12, 18, 24}, Kind: FTP},
			{ID: 2, Path: routing.Path{4, 8, 12, 16, 20}, Kind: CBRTraffic, CBRInterval: 5 * sim.Millisecond},
		},
		Routing:  RoutingSpec{Kind: RouteETX},
		Mobility: MobilitySpec{Kind: MobilityWaypoint, Epoch: 20 * sim.Millisecond, Seed: 2, MinSpeed: 20, MaxSpeed: 60},
		Faults:   fault.Spec{Seed: 5, MTBF: 300 * sim.Millisecond, MTTR: 40 * sim.Millisecond},
		Duration: 3 * sim.Second,
		Seed:     17,
	}
}

// localAggConfig is the lattice with the one protocol state no other pin
// reaches: local packets riding on relayed frames (Remark 3). Station 7
// relays flow 1 toward 21 and has a stream of its own for 21 to top the
// relays up with.
func localAggConfig() Config {
	cfg := orderGridConfig(Ripple)
	cfg.Flows = append(cfg.Flows, FlowSpec{ID: 5, Path: routing.Path{7, 14, 21},
		Kind: CBRTraffic, CBRInterval: 2 * sim.Millisecond, CBRPacketBytes: 200})
	cfg.RippleOpts.LocalAggOnRelay = true
	return cfg
}

// TestFanOrderRunsPinned holds the event-order runs to their pins.
func TestFanOrderRunsPinned(t *testing.T) { runPins(t, "fanorder") }

func gridExercised(t *testing.T, _ Config, res *Result) {
	if res.Medium.FramesCollided == 0 {
		t.Fatal("no reception lost to overlap: concurrent fan-outs never met at a receiver")
	}
}

// localAggExercised checks that piggybacking shaped the run: without it the
// same lattice gives different MAC counters.
func localAggExercised(t *testing.T, cfg Config, res *Result) {
	cfg.RippleOpts.LocalAggOnRelay = false
	off, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if off.MAC == res.MAC {
		t.Fatal("LocalAggOnRelay left the MAC counters unchanged: no local packet rode on a relay")
	}
}

// cutAt is where TestFanOrderDurationCutsFanOut finds the cut: the instant
// the pinned cut run stops.
const cutAt = 199974923

// cutConfig is the lattice cut between two receptions of one frame:
// reception cursors are pending when the run ends.
func cutConfig() Config {
	cfg := orderGridConfig(Ripple)
	cfg.Duration = cutAt
	return cfg
}

// The clock runs out between two receptions of one frame: the run is the
// lattice above cut 300 ns after a mid-run transmission starts, when the
// frame has begun at the transmitter's nearest neighbours (70 m, 233 ns)
// and not yet at the others (99 m and beyond, 330 ns and up). What is left
// of the fan-out is counted in PendingAtEnd, one per reception phase not
// yet fired. The cut case of the corpus pins that run; this test finds the
// instant from a trace and holds the pin to it.
func TestFanOrderDurationCutsFanOut(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the instant is an amd64 value: other targets may fuse float operations differently")
	}
	cfg := orderGridConfig(Ripple)
	cfg.Duration = 200 * sim.Millisecond
	var txAt []sim.Time
	var txBy []pkt.NodeID
	cfg.Trace = func(at sim.Time, ev string, node pkt.NodeID, _ *pkt.Frame) {
		if ev == "tx" {
			txAt = append(txAt, at)
			txBy = append(txBy, node)
		}
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	// The last transmission from an interior station that starts at least
	// a microsecond after the one before it: nothing else begins inside
	// the cut.
	cut := -1
	for i := len(txAt) - 1; i > 0; i-- {
		x, y := int(txBy[i])%6, int(txBy[i])/6
		if x > 0 && x < 5 && y > 0 && y < 5 && txAt[i]-txAt[i-1] > sim.Microsecond {
			cut = i
			break
		}
	}
	if cut < 0 {
		t.Fatal("no isolated interior transmission to cut")
	}
	if at := txAt[cut] + 300; at != cutAt {
		t.Fatalf("the cut is at %d ns (transmission %d by station %d), the pinned run stops at %d",
			at, cut, txBy[cut], cutAt)
	}
	res, err := Run(cutConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Medium.FramesSent != uint64(cut+1) {
		t.Fatalf("%d frames sent by the cut, want %d: the cut is not where the trace put it",
			res.Medium.FramesSent, cut+1)
	}
}
