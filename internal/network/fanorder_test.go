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
// runs out between two receptions of one frame. Recorded at commit 8633737
// (two engine events per sensed receiver); Events and PendingAtEnd are
// asserted as numbers too, so a change in what an event is shows as such
// and not as a digest mismatch.

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

type orderPin struct {
	digest       string
	events       uint64
	pendingAtEnd int
}

var fanOrderPins = map[string]orderPin{
	"grid/Ripple":              {"ce77130623254c45c31986469ddb9c2b9d648c264f9feb6cfc5e143508b90a84", 640162, 10},
	"grid/DCF":                 {"73235dc98eeb4b4162219b50a81ecb2518765714b873c2aa84ca99d63d5111ad", 1702155, 14},
	"grid/MCExOR":              {"e1cf09fc3582e9f4f19c189419ee26340a9b3827128f9f58238d637caaf68f8d", 1331346, 11},
	"colocated/Ripple":         {"10940b717cc7a5fdfc309f1f52b822069b025291bff272b3d0f154818cac29db", 151793, 15},
	"colocated/AFR/pruned":     {"bc72d8c872da94aee1bb8cd34355b46d28dbba07eb91e2b2d66f63e44221b0a6", 200129, 15},
	"swapcrash/Ripple":         {"3eb5585a87dfe0e0ef23143e09ba164b23cdece57dc80160fc5d77a149bd1dd7", 29954, 26},
	"swapcrash/PreExOR/pruned": {"61572453428a543f52ce1a825bb1760f6ffed3ad548bb256b4a3488252d66c51", 205398, 26},
	"cut":                      {"95ab3aabb47bddf0e27acf05f462770c8b68a863133d004e12a498ecedf19938", 88124, 69},
}

func checkOrderPin(t *testing.T, name string, res *Result) {
	t.Helper()
	pin := fanOrderPins[name]
	if res.Events != pin.events || res.PendingAtEnd != pin.pendingAtEnd {
		t.Errorf("Events %d, PendingAtEnd %d; pinned %d and %d",
			res.Events, res.PendingAtEnd, pin.events, pin.pendingAtEnd)
	}
	checkResultDigest(t, res, pin.digest)
}

func TestFanOrderRunsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are amd64 values: other targets may fuse float operations differently")
	}
	cases := []struct {
		name  string
		cfg   Config
		check func(t *testing.T, res *Result)
	}{
		{"grid/Ripple", orderGridConfig(Ripple), gridExercised},
		{"grid/DCF", orderGridConfig(DCF), gridExercised},
		{"grid/MCExOR", orderGridConfig(MCExOR), gridExercised},
		{"colocated/Ripple", colocatedConfig(Ripple, 0), nil},
		{"colocated/AFR/pruned", colocatedConfig(AFR, 6), nil},
		{"swapcrash/Ripple", swapCrashConfig(Ripple, 0), swapCrashExercised},
		{"swapcrash/PreExOR/pruned", swapCrashConfig(PreExOR, 6), swapCrashExercised},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Medium.FramesDelivered == 0 {
				t.Fatal("nothing delivered: the run pins nothing")
			}
			if c.check != nil {
				c.check(t, res)
			}
			checkOrderPin(t, c.name, res)
		})
	}
}

func gridExercised(t *testing.T, res *Result) {
	if res.Medium.FramesCollided == 0 {
		t.Fatal("no reception lost to overlap: concurrent fan-outs never met at a receiver")
	}
}

func swapCrashExercised(t *testing.T, res *Result) {
	if res.MAC.CrashDrops == 0 {
		t.Fatal("churn never caught a station holding packets")
	}
}

// The clock runs out between two receptions of one frame: the run is the
// lattice above cut 300 ns after a mid-run transmission starts, when the
// frame has begun at the transmitter's nearest neighbours (70 m, 233 ns)
// and not yet at the others (99 m and beyond, 330 ns and up). What is left
// of the fan-out is counted in PendingAtEnd, one per reception phase not
// yet fired.
func TestFanOrderDurationCutsFanOut(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are amd64 values: other targets may fuse float operations differently")
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
	cfg.Trace = nil
	cfg.Duration = txAt[cut] + 300
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Medium.FramesSent != uint64(cut+1) {
		t.Fatalf("%d frames sent by the cut, want %d: the cut is not where the trace put it",
			res.Medium.FramesSent, cut+1)
	}
	t.Logf("cut at %d ns, transmission %d by station %d", cfg.Duration, cut, txBy[cut])
	checkOrderPin(t, "cut", res)
}
