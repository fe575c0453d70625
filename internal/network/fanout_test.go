package network

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"ripple/internal/fault"
	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

// cityWithFlows is an n-station CityN layout (layout seed 11) tiled, as the
// benchmark's city is, with nFlows five-block 1000-byte CBR flows: sources
// on distinct grid rows, columns staggered, ETX routes from the endpoints.
func cityWithFlows(n, nFlows int, interval sim.Time) ([]radio.Pos, []FlowSpec) {
	top, p := topology.CityN(n, 11)
	const span = 5
	flows := make([]FlowSpec, nFlows)
	for i := range flows {
		src := pkt.NodeID((i*p.Rows)/nFlows*p.Cols + (i*3)%(p.Cols-span))
		flows[i] = FlowSpec{
			ID:             i + 1,
			Path:           routing.Path{src, src + span},
			Kind:           CBRTraffic,
			CBRInterval:    interval,
			CBRPacketBytes: 1000,
		}
	}
	return top.Positions, flows
}

// fanoutCityConfig is the benchmark's city in miniature with every fault
// process on: a pruned ~200-station CityN world under Markov mobility,
// churn, noise bursts, a partition window and enough flapping links that
// the flows' neighbourhoods contain some. Every transmission's receiver
// fan-out therefore passes through the medium's link veto, and every
// masked epoch world through LinkBlockedAt.
func fanoutCityConfig(kind SchemeKind) Config {
	positions, flows := cityWithFlows(200, 4, 10*sim.Millisecond)
	return Config{
		Positions: positions,
		Radio:     topology.CityRadio(),
		Scheme:    kind,
		Flows:     flows,
		Routing:   RoutingSpec{Kind: RouteETX},
		Mobility:  MobilitySpec{Kind: MobilityMarkov, Stay: 0.9, Epoch: 200 * sim.Millisecond, Seed: 3},
		Faults: fault.Spec{
			Seed: 7,
			MTBF: 400 * sim.Millisecond, MTTR: 200 * sim.Millisecond,
			FlapLinks: 400, FlapUp: 300 * sim.Millisecond, FlapDown: 150 * sim.Millisecond,
			NoiseBursts: 3, NoiseEvery: 400 * sim.Millisecond,
			PartitionAt: 700 * sim.Millisecond, PartitionDur: 300 * sim.Millisecond,
		},
		Duration: 1500 * sim.Millisecond,
		Seed:     9,
	}
}

// fanoutHiddenConfig is the overlap-heavy run: flow 1's three-hop line with
// six saturated hidden sources on a shadowed, bit-erroring radio, so a
// large share of receptions begin while others are in flight at the same
// receiver and the cumulative-SINR capture decision runs constantly.
func fanoutHiddenConfig() Config {
	top, main, hidden := topology.Hidden(6)
	rc := topology.HiddenRadio()
	rc.BitErrorRate = 1e-5
	flows := []FlowSpec{{ID: 1, Path: main, Kind: FTP}}
	for i, p := range hidden {
		flows = append(flows, FlowSpec{ID: i + 2, Path: p, Kind: CBRTraffic, Start: 50 * sim.Millisecond})
	}
	return Config{
		Positions: top.Positions,
		Radio:     rc,
		Scheme:    Ripple,
		Flows:     flows,
		Duration:  2 * sim.Second,
		Seed:      13,
	}
}

// fanoutResultDigests pins the sha256 of each run's Result JSON, recorded at
// commit b05461c (before the reception fan-out fast path): the medium's
// per-receiver loop — link veto, shadowing draw, addressed-receiver
// accounting — and its capture arithmetic are held to identity.
var fanoutResultDigests = map[string]string{
	"city/Ripple": "dcef5093f6aaaf60bebab8ff35036fc93fc2e28442d9acc4325ee48c65bfe9dc",
	"city/MCExOR": "bc3cc7593e43a576b32848f5e0e381fcf29f5101061085053b70e92733eb85ba",
	"hidden":      "daeead7b6015f0a6edf73f2c1dd7aaf29066eec3d574711eedf403fc092c23d3",
}

// checkResultDigest fails the test unless the sha256 of res's JSON is the
// pinned value.
func checkResultDigest(t *testing.T, res *Result, pinned string) {
	t.Helper()
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != pinned {
		t.Fatalf("Result digest %s, pinned %s\n%s", got, pinned, blob)
	}
}

func TestFanoutRunsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are amd64 values: other targets may fuse float operations differently")
	}
	cases := []struct {
		name  string
		cfg   Config
		check func(t *testing.T, cfg Config, res *Result)
	}{
		{"city/Ripple", fanoutCityConfig(Ripple), cityExercised},
		{"city/MCExOR", fanoutCityConfig(MCExOR), cityExercised},
		{"hidden", fanoutHiddenConfig(), func(t *testing.T, _ Config, res *Result) {
			if res.Medium.FramesCollided == 0 {
				t.Fatal("no reception lost to overlap: the capture path is not exercised")
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.check(t, c.cfg, res)
			checkResultDigest(t, res, fanoutResultDigests[c.name])
		})
	}
}

// cityExercised checks that the run is worth pinning, and that the flaps
// and the partition shaped it: the same world without them must give a
// different Result.
func cityExercised(t *testing.T, cfg Config, res *Result) {
	if res.Medium.FramesDelivered == 0 || res.MAC.CrashDrops == 0 {
		t.Fatalf("city run too quiet to pin: %d frames delivered, %d crash drops",
			res.Medium.FramesDelivered, res.MAC.CrashDrops)
	}
	cfg.Faults.FlapLinks, cfg.Faults.PartitionDur = 0, 0
	unblocked, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if unblocked.Medium == res.Medium {
		t.Fatal("flaps and partition left the medium counters unchanged: the link veto is not exercised")
	}
}
