package network

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"ripple/internal/fault"
	"ripple/internal/pkt"
	"ripple/internal/routing"
	"ripple/internal/sim"
	"ripple/internal/topology"
	"ripple/internal/trace"
)

// worldPinConfig is one cell of the world-derivation matrix: a jittered
// 4×12 lattice at a 200 m pitch (2.2 km long, so a one-sigma pruning cutoff
// keeps 956 of the 2256 ordered pairs and the unpruned twin stores them
// all), three paced CBR flows with declared five-hop paths along their
// rows, mobility short-epoched enough that a 1.5 s run crosses seven
// boundaries, and every fault process on: churn, flapping links, noise
// bursts and a partition window that opens and closes mid-run. The waypoint
// cells carry the heavy fault profile (every epoch's table is masked); the
// Markov cells the light one, whose epochs read clean, masked, clean, masked,
// masked, clean, clean — so a clean table is patched from the root's, from a
// clean epoch's and from the clean table carried through a masked epoch, and
// a masked one filtered after each — and whose hops disconnect flow endpoints
// in clean epochs (stale routes) as well as masked ones (unreachable).
// Between them the cells reach every provenance of a link table
// (pruned/unpruned × clean/masked × after clean/after masked), both route
// resolutions (root world, epoch world) for a sized static path and for each
// built-in policy, and the epoch swap's stale/unreachable bookkeeping.
func worldPinConfig(pruned bool, mob MobilityKind, route RoutingSpec) Config {
	const rows, cols = 4, 12
	top := topology.City(topology.CityParams{Rows: rows, Cols: cols, Spacing: 200, Jitter: 20, Seed: 5})
	rc := topology.CityRadio()
	rc.PruneSigma = 0
	if pruned {
		rc.PruneSigma = 1
	}
	flows := make([]FlowSpec, 3)
	for i := range flows {
		src := pkt.NodeID(i*cols + i)
		flows[i] = FlowSpec{
			ID:             i + 1,
			Path:           routing.Path{src, src + 1, src + 2, src + 3, src + 4, src + 5},
			Kind:           CBRTraffic,
			CBRInterval:    3 * sim.Millisecond,
			CBRPacketBytes: 1000,
			Start:          sim.Time(i) * 10 * sim.Millisecond,
		}
	}
	scheme := Ripple
	faults := fault.Spec{
		Seed: 6,
		MTBF: 500 * sim.Millisecond, MTTR: 250 * sim.Millisecond,
		FlapLinks: 60, FlapUp: 300 * sim.Millisecond, FlapDown: 200 * sim.Millisecond,
		NoiseBursts: 2, NoiseEvery: 400 * sim.Millisecond,
		PartitionAt: 500 * sim.Millisecond, PartitionDur: 450 * sim.Millisecond,
	}
	if mob == MobilityMarkov {
		scheme = MCExOR
		faults = fault.Spec{
			Seed: 2,
			MTBF: 12 * sim.Second, MTTR: 100 * sim.Millisecond,
			FlapLinks: 4, FlapUp: 500 * sim.Millisecond, FlapDown: 100 * sim.Millisecond,
			NoiseBursts: 1, NoiseEvery: 600 * sim.Millisecond,
			PartitionAt: 700 * sim.Millisecond, PartitionDur: 250 * sim.Millisecond,
		}
	}
	return Config{
		Positions: top.Positions,
		Radio:     rc,
		Scheme:    scheme,
		Flows:     flows,
		Routing:   route,
		Mobility:  MobilitySpec{Kind: mob, Epoch: 200 * sim.Millisecond, Seed: 4, MaxSpeed: 40, Stay: 0.7},
		Faults:    faults,
		Duration:  1500 * sim.Millisecond,
		Seed:      21,
	}
}

// worldPinRoutes are the four route resolutions of the matrix.
var worldPinRoutes = []struct {
	name string
	spec RoutingSpec
}{
	{"staticK3", RoutingSpec{K: 3}},
	{"etx", RoutingSpec{Kind: RouteETX}},
	{"congestion", RoutingSpec{Kind: RouteCongestion, Epoch: 150 * sim.Millisecond, K: 2, Rule: routing.SizeNearDst}},
	{"geo", RoutingSpec{Kind: RouteGeo}},
}

// worldPinDigests pins, per cell, the sha256 of the Result JSON and of the
// run's JSONL trace (every medium event plus the station-down, station-up,
// route-stale and unreachable events Run fabricates frames for), recorded on
// the tree with two routing.Table layouts, three plan.Pruned() sites, four
// Routing.build sites and the 380-line Run.
var worldPinDigests = map[string][2]string{
	"unpruned/waypoint/staticK3": {
		"8769c0f8a3b3164eb9c23dd6172a221d3a6e058f9ffa3ec268e050160e11c779",
		"c1cd1128aca8b2a792ea48938771fd12515d4a0ad850650755ef847fd4f20b15",
	},
	"unpruned/waypoint/etx": {
		"8f1fa21e59d2016ef4f5d3ab4996b6c3235870fa13d6394ee999ce0a3fed5970",
		"2f6a13a299a9584bc97cea24c21161cc6ff874fe14c182b06c5909c083673ee7",
	},
	"unpruned/waypoint/congestion": {
		"9e6d63154adc1a6b66fd7f9a7d8577d72b821ace38559cf9a62a6b00a4befbcb",
		"7d8fbfe9f55da9eba3412763dcdc63e2a7ba8f9bef8a913535085197f18430b6",
	},
	"unpruned/waypoint/geo": {
		"a4f8f46a7ab32106850f651f025753b56c30321ed14469090c358e77d91a1492",
		"fe5f943017992d42db845264bdefc779d2dd710232d68afef590fe1901f67d19",
	},
	"unpruned/markov/staticK3": {
		"af6a90a640001616b8eebf4f8970b2a01bddd906519cce1b89fe0b184fdb68a8",
		"18435f9dd860841c2dd0938ba34d140d70965393ca864620ae91c9d9ab56acba",
	},
	"unpruned/markov/etx": {
		"7c6913849e55a35b23e7fba69881e9a6199b17726b40b642bc9564bc1bee07a8",
		"2452699e3de05ca7e95031e3c49f6fc3cd81532fbf0f8a615945618c119ea12a",
	},
	"unpruned/markov/congestion": {
		"846c366a5838b700118b82ee45c2d247505a50034961a05c5761abd95d34faac",
		"c3dcaea0f3ff34f8e75da4205fdba6923103448a718ed122f03244088cddf661",
	},
	"unpruned/markov/geo": {
		"dfdceddf4325dab913236b5caf6b839d9716e3270f3ccfaeacc78d00993e24a2",
		"6da771fc41714f9dc0b7099a2f6a80d7c621a3ed2a62222dc68ef14bd3a2da99",
	},
	"pruned/waypoint/staticK3": {
		"8f31c126bd2062bb53c0b90265e572b6e7a54a0635bb9ed6675c1a39da7d00fc",
		"b50f6d9d011259a084f8e8e30199c8495edd15ee41659073ef3e85ddef8fb019",
	},
	"pruned/waypoint/etx": {
		"da395e322fcc094a5b24ba3d9e1b2c93609a3d56a6119dde5b74e36fceba720d",
		"882fca4d2dd1e72187e30aae75000a8376ac506a457d5ae1a3d131ef8a8df814",
	},
	"pruned/waypoint/congestion": {
		"fe796d1ab06498e5bb76c83818d02da2ed6b84b203eb5ebe27b5df43dbcb67dc",
		"e1d76beebedad9ee444d041fc0cc60d92d89a9f0445db92ccb65fa2556c70736",
	},
	"pruned/waypoint/geo": {
		"d3b4e33f878b7c35b1fada14bd6706373ac4a16dea3c99d0e52a98ab29405eeb",
		"14c948477b4b922313ca629bbc04d26b1740f07e32d345c79a3cd8c8c6aa37bb",
	},
	"pruned/markov/staticK3": {
		"5e614e0b293180db00bfc391b5f3f045b08685f4d9222433ef32ba958fa0bb8b",
		"f480237d3167e283f67041f806ecec15abfbaa7fd72d2a112aebd72cf52e939f",
	},
	"pruned/markov/etx": {
		"d949aa096a1175664abfd5c40a85eb4bd064208fcea26f0504ed7341ee758715",
		"dec8724d599aca0d265b57ebc26f672c4519105535b4ac545c07590cd489ae60",
	},
	"pruned/markov/congestion": {
		"34ba0b9946886eee5062fb474fccaedb3f4c8f8a6043eab93e2061fb1d74a5b3",
		"ced45446819ce2061b5bb6721d75de74ef310061e8921db8b7f475ee5e3a713b",
	},
	"pruned/markov/geo": {
		"d96558c16ec67245c950760d3aab54971131c65b31a06aa5e30dd48752810f02",
		"6b274073edc8904e3fb350d18d7a194c962ecb02850a495ce9c5a3757d59328b",
	},
}

func TestWorldDerivationRunsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are amd64 values: other targets may fuse float operations differently")
	}
	var stale, unreach uint64
	crashes := 0
	for _, pruned := range []bool{false, true} {
		for _, mob := range []MobilityKind{MobilityWaypoint, MobilityMarkov} {
			for _, rt := range worldPinRoutes {
				layout := "unpruned"
				if pruned {
					layout = "pruned"
				}
				name := fmt.Sprintf("%s/%s/%s", layout, mob, rt.name)
				t.Run(name, func(t *testing.T) {
					cfg := worldPinConfig(pruned, mob, rt.spec)
					res, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if res.Medium.FramesDelivered == 0 {
						t.Fatal("nothing delivered: the cell pins an idle run")
					}
					stale += res.RouteStale
					unreach += res.Unreachable

					h := sha256.New()
					rec := &trace.Recorder{W: h}
					cfg.Trace = func(at sim.Time, event string, node pkt.NodeID, f *pkt.Frame) {
						if event == "station-down" {
							crashes++
						}
						rec.Hook()(at, event, node, f)
					}
					traced, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if rec.Err() != nil {
						t.Fatal(rec.Err())
					}
					if !reflect.DeepEqual(res, traced) {
						t.Fatal("installing the trace hook changed the Result")
					}
					pin := worldPinDigests[name]
					if got := hex.EncodeToString(h.Sum(nil)); got != pin[1] {
						t.Errorf("trace digest %s, pinned %q", got, pin[1])
					}
					checkResultDigest(t, res, pin[0])
				})
			}
		}
	}
	if stale == 0 || unreach == 0 || crashes == 0 {
		t.Fatalf("matrix too quiet to pin: %d stale-route epochs, %d unreachable drops, %d station crashes",
			stale, unreach, crashes)
	}
}
