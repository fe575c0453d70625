package network

import (
	"reflect"
	"sync"
	"testing"

	"ripple/internal/campaign/pool"
	"ripple/internal/fault"
	"ripple/internal/phys"
	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

// lineChurnConfig is the resilience ablation's line arena in miniature: a
// paced CBR flow over a 5-hop line under a sharpened radio, with station
// churn aggressive enough that relays crash mid-run.
func lineChurnConfig(seed uint64) Config {
	top, path := topology.Line(5)
	r := radio.DefaultConfig()
	r.ShadowSigmaDB = 3
	r.RXThreshDBm = r.MeanRxPowerDBm(150)
	r.CSThreshDBm = r.RXThreshDBm - 13
	return Config{
		Positions: top.Positions,
		Radio:     r,
		Scheme:    Ripple,
		Flows: []FlowSpec{{ID: 1, Path: path, Kind: CBRTraffic,
			CBRInterval: 20 * sim.Millisecond, CBRPacketBytes: 1000}},
		Faults: fault.Spec{
			MTBF:  2 * sim.Second,
			MTTR:  500 * sim.Millisecond,
			Epoch: 100 * sim.Millisecond,
		},
		Duration: 8 * sim.Second,
		Seed:     seed,
	}
}

// A FaultSpec with a seed but no fault modes enabled is inert: the run
// must be bit-identical to one with no Faults field at all — no epoch
// machinery, no extra RNG draws, nothing.
func TestInertFaultSpecLeavesRunIdentical(t *testing.T) {
	base, err := Run(smokeConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smokeConfig(42)
	cfg.Faults = fault.Spec{Seed: 99, FailureThreshold: 7}
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Fatalf("inert fault spec perturbed the run:\nbase %+v\ngot  %+v", base, got)
	}
}

func TestFaultRunDeterministic(t *testing.T) {
	a, err := Run(lineChurnConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(lineChurnConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config diverged under faults:\n%+v\nvs\n%+v", a, b)
	}
	if a.MAC.CrashDrops == 0 && a.Events == b.Events && a.TotalMbps == 0 {
		t.Fatal("fault run looks empty — did the flow ever start?")
	}
}

// The fault timeline is a function of Spec.Seed, not Config.Seed: two runs
// that differ only in the traffic seed crash the same stations at the same
// times. This is what lets a seed-averaged sweep hold the failure pattern
// fixed while varying channel randomness.
func TestFaultScheduleIndependentOfConfigSeed(t *testing.T) {
	type ev struct {
		at      sim.Time
		kind    string
		station pkt.NodeID
	}
	timeline := func(seed uint64) []ev {
		var mu sync.Mutex
		var evs []ev
		cfg := lineChurnConfig(seed)
		cfg.Trace = func(at sim.Time, event string, node pkt.NodeID, _ *pkt.Frame) {
			if event == "station-down" || event == "station-up" {
				mu.Lock()
				evs = append(evs, ev{at, event, node})
				mu.Unlock()
			}
		}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return evs
	}
	a := timeline(1)
	b := timeline(2)
	if len(a) == 0 {
		t.Fatal("no churn events over 8 s at MTBF 2 s")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fault timeline moved with Config.Seed:\n%v\nvs\n%v", a, b)
	}
}

// A crash releases custody of every packet the station held; the pool's
// outstanding count at end of run stays bounded by total queue capacity
// no matter how many relays died holding traffic.
func TestCrashReleasesCustody(t *testing.T) {
	// DCF store-and-forward with a backlogged FTP flow: relay queues hold
	// real custody between hops, so a crash reliably catches a station
	// holding packets. (RIPPLE relays hold custody only for the duration
	// of an mTXOP cascade — microseconds — so churn rarely catches them.)
	cfg := lineChurnConfig(3)
	cfg.Scheme = DCF
	cfg.Flows = []FlowSpec{{ID: 1, Path: cfg.Flows[0].Path, Kind: FTP}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MAC.CrashDrops == 0 {
		t.Fatal("no crash drops — churn never caught a station holding packets")
	}
	cap := len(cfg.Positions) * phys.Default().QueueLimit
	if res.PoolInUse > cap {
		t.Fatalf("PoolInUse = %d exceeds total queue capacity %d: custody leaked",
			res.PoolInUse, cap)
	}
}

// Pool-width invariance must survive fault injection: the shared world
// snapshot now carries fault overlays and per-epoch masked routes, and
// concurrent seed-runs read it simultaneously. Run under -race this also
// checks the overlay is truly read-only.
func TestFaultPoolWidthEquality(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4}
	serial, savg, err := runSeedsOn(pool.New(1), lineChurnConfig(0), seeds)
	if err != nil {
		t.Fatal(err)
	}
	wide, wavg, err := runSeedsOn(pool.New(8), lineChurnConfig(0), seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Fatal("per-seed results differ across pool widths with faults on")
	}
	if !reflect.DeepEqual(savg, wavg) {
		t.Fatal("averages differ across pool widths with faults on")
	}
}

// An area partition that cuts a flow's destination off produces typed
// unreachable drops at the source — counted on the run, mirrored from the
// MAC, attributed to the flow — and NOT stale-route events: the overlay
// cut the table, so the distinction at epoch derivation must label it
// unreachable rather than limping along on a stale route.
func TestPartitionUnreachableTypedDrops(t *testing.T) {
	top, path := topology.Line(3)
	cfg := Config{
		Positions: top.Positions,
		Scheme:    Ripple,
		Routing:   RoutingSpec{Kind: RouteETX},
		Flows: []FlowSpec{{ID: 1, Path: path, Kind: CBRTraffic,
			CBRInterval: 20 * sim.Millisecond, CBRPacketBytes: 1000}},
		Faults: fault.Spec{
			PartitionAt:  1 * sim.Second,
			PartitionDur: 2 * sim.Second,
			Epoch:        100 * sim.Millisecond,
		},
		Duration: 4 * sim.Second,
		Seed:     11,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unreachable == 0 {
		t.Fatal("no unreachable drops during a 2 s partition severing the flow")
	}
	if res.Unreachable != res.MAC.Unreachable {
		t.Fatalf("Result.Unreachable = %d but MAC.Unreachable = %d",
			res.Unreachable, res.MAC.Unreachable)
	}
	if res.Flows[0].Unreachable == 0 {
		t.Fatal("unreachable drops not attributed to the flow")
	}
	if res.RouteStale != 0 {
		t.Fatalf("RouteStale = %d: an overlay cut must be typed unreachable, not stale",
			res.RouteStale)
	}
	// Delivery resumes after the partition lifts: the flow is not dead.
	if res.Flows[0].PktsDelivered == 0 {
		t.Fatal("no packets delivered outside the partition window")
	}
}
