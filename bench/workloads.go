package main

import (
	"fmt"

	"ripple/internal/fault"
	"ripple/internal/forward"
	"ripple/internal/network"
	"ripple/internal/phys"
	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

// width is the in-process pool width and the worker-process count of the
// suite workloads. It is fixed, never derived from the host, so that two
// hosts run the same schedule.
const width = 2

// Seed tags: every random input of a run derives from the one benchmark
// seed through its own tag, so run seeds, the city layout and the fault
// schedule never share a stream.
const (
	tagCity uint64 = iota + 1
	tagFaults
	tagWarmup
	tagRun // op i runs under derive(seed, tagRun+i)
)

// derive maps (seed, tag) to an independent 64-bit seed (splitmix64).
func derive(seed, tag uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + tag*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1 // 0 means "default" to several specs
	}
	return z
}

// scenarioSpec is a single-scenario workload: every op is one network.Run
// of the generated config on one shared prebuilt World.
type scenarioSpec struct {
	name string
	// digestOps is how many leading ops always run; their results feed
	// result_digest and the per-layer counts, so both repeat exactly
	// however many further ops the time budget allows.
	digestOps int
	// faulty workloads may legitimately deliver nothing on some seeds.
	faulty bool
	config func(seed uint64, quick bool) network.Config
}

var scenarios = []scenarioSpec{
	{name: "ftp_chain", digestOps: 20, config: ftpChain},
	{name: "voip_fig1", digestOps: 20, config: voipFig1},
	{name: "web_fig1", digestOps: 20, config: webFig1},
	{name: "city_mobile_faulty", digestOps: 3, faulty: true, config: cityMobileFaulty},
}

const (
	suitePool = "suite_pool"
	suiteDist = "suite_dist"
)

// workloadNames lists every workload in the order full runs interleave
// them.
func workloadNames() []string {
	var names []string
	for _, s := range scenarios {
		names = append(names, s.name)
	}
	return append(names, suitePool, suiteDist)
}

func dur(full, quick sim.Time, q bool) sim.Time {
	if q {
		return quick
	}
	return full
}

// ftpChain is the transport-bound workload: one saturated TCP flow over a
// three-hop line, four stations, a shallow event heap.
func ftpChain(_ uint64, quick bool) network.Config {
	top, path := topology.Line(3)
	return network.Config{
		Positions: top.Positions,
		Scheme:    network.Ripple,
		Flows:     []network.FlowSpec{{ID: 1, Path: path, Kind: network.FTP}},
		Duration:  dur(5*sim.Second, 50*sim.Millisecond, quick),
	}
}

// fig1Flows is the paper's 30-flow interactive load: ten flows per ROUTE0
// path of the Fig. 1 topology, staggered within each group.
func fig1Flows(kind network.TrafficKind, stagger sim.Time) []network.FlowSpec {
	var flows []network.FlowSpec
	for g, p := range routing.Route0().Flows() {
		for k := 0; k < 10; k++ {
			flows = append(flows, network.FlowSpec{
				ID: g*10 + k + 1, Path: p, Kind: kind, Start: sim.Time(k) * stagger,
			})
		}
	}
	return flows
}

// voipFig1 is Table III's heaviest cell: 30 on-off calls at 6 Mbps, where
// contention, relaying and reception cost and the transport is trivial.
func voipFig1(_ uint64, quick bool) network.Config {
	rc := radio.DefaultConfig()
	rc.BitErrorRate = 1e-6
	return network.Config{
		Positions: topology.Fig1().Positions,
		Radio:     rc,
		Phy:       phys.LowRate(),
		Scheme:    network.Ripple,
		Flows:     fig1Flows(network.VoIPTraffic, 30*sim.Millisecond),
		Duration:  dur(10*sim.Second, 400*sim.Millisecond, quick),
	}
}

// webFig1 drives the same TCP code as ftpChain through short transfers:
// slow-start-dominated windows, a connection reset per transfer and idle
// gaps that empty the event heap.
func webFig1(_ uint64, quick bool) network.Config {
	return network.Config{
		Positions: topology.Fig1().Positions,
		Scheme:    network.Ripple,
		Flows:     fig1Flows(network.Web, 20*sim.Millisecond),
		Duration:  dur(20*sim.Second, 400*sim.Millisecond, quick),
	}
}

// cityTrajectories seeds the city's Markov mobility. It is part of the
// workload's definition, not derived from the benchmark seed: which routes
// the trajectories break moves events per op by ±12 % from one trajectory
// seed to the next (±3 % over layout and fault seeds), which would make
// every per-op metric a function of the seed rather than of the code.
const cityTrajectories = 5

// cityMobileFaulty is the world-size-bound workload: a 2000-station mobile
// city whose layout and fault schedule derive from the seed.
func cityMobileFaulty(seed uint64, quick bool) network.Config {
	n, nFlows := 2000, 16
	if quick {
		n, nFlows = 200, 4
	}
	top, p := topology.CityN(n, derive(seed, tagCity))
	span := 5 // about five blocks: a genuinely multi-hop ETX route
	flows := make([]network.FlowSpec, nFlows)
	for i := range flows {
		// Sources on distinct grid rows, columns staggered, so the flows
		// tile the city instead of sharing one corridor.
		row := (i * p.Rows) / nFlows
		col := (i * 3) % (p.Cols - span)
		src := pkt.NodeID(row*p.Cols + col)
		flows[i] = network.FlowSpec{
			ID:             i + 1,
			Path:           routing.Path{src, src + pkt.NodeID(span)},
			Kind:           network.CBRTraffic,
			CBRInterval:    20 * sim.Millisecond,
			CBRPacketBytes: 1000,
		}
	}
	return network.Config{
		Positions: top.Positions,
		Radio:     topology.CityRadio(),
		Scheme:    network.Ripple,
		Flows:     flows,
		Routing:   network.RoutingSpec{Kind: network.RouteETX},
		Mobility: network.MobilitySpec{
			Kind: network.MobilityMarkov, Stay: 0.95,
			Epoch: 500 * sim.Millisecond, Seed: cityTrajectories,
		},
		Faults: fault.Spec{
			Seed: derive(seed, tagFaults), MTBF: 20 * sim.Second,
			MTTR: 2 * sim.Second, FlapLinks: 20,
		},
		Duration: dur(5*sim.Second, 1200*sim.Millisecond, quick),
	}
}

// tally sums what the per-layer counts need over a set of results.
type tally struct {
	ops       int // ops the results belong to
	results   int
	events    uint64
	pending   int
	poolInUse int
	stale     uint64
	transfers int64
	medium    radio.Counters
	mac       forward.Counters
	// delivered packets by traffic kind, indexed by network.TrafficKind.
	delivered [network.CBRTraffic + 1]int64
	// cells and payloadBytes size what a distributed run would ship.
	cells, payloadBytes int
}

// addCell folds one campaign cell: the per-seed results of one scenario,
// which is also the unit a distributed run ships as one payload.
func (t *tally) addCell(seeds []*network.Result) {
	for _, r := range seeds {
		t.add(r)
	}
	if b, err := canonical(seeds); err == nil {
		t.cells++
		t.payloadBytes += len(b)
	}
}

func (t *tally) add(r *network.Result) {
	t.results++
	t.events += r.Events
	t.pending += r.PendingAtEnd
	t.poolInUse += r.PoolInUse
	t.stale += r.RouteStale
	m := r.Medium
	t.medium.FramesSent += m.FramesSent
	t.medium.FramesDelivered += m.FramesDelivered
	t.medium.FramesCollided += m.FramesCollided
	t.medium.FramesShadowed += m.FramesShadowed
	t.medium.HeaderErrors += m.HeaderErrors
	t.medium.HalfDuplexLost += m.HalfDuplexLost
	c := r.MAC
	t.mac.TxFrames += c.TxFrames
	t.mac.TxData += c.TxData
	t.mac.TxPackets += c.TxPackets
	t.mac.AckTimeouts += c.AckTimeouts
	t.mac.Retries += c.Retries
	t.mac.MACDrops += c.MACDrops
	t.mac.QueueDrops += c.QueueDrops
	t.mac.Relays += c.Relays
	t.mac.RelayCancels += c.RelayCancels
	t.mac.Duplicates += c.Duplicates
	t.mac.Unreachable += c.Unreachable
	t.mac.CrashDrops += c.CrashDrops
	for _, f := range r.Flows {
		t.delivered[f.Kind] += f.PktsDelivered
		t.transfers += f.Transfers
	}
}

// checkResult applies the per-op output checks of a single-scenario
// workload and returns the result's canonical bytes; a non-nil error
// counts the op as failed. poolLimit is what a healthy run may leave
// parked at the end: a full interface queue plus one frame in service per
// station — more means leaked custody.
func checkResult(res *network.Result, faulty bool, poolLimit int) ([]byte, error) {
	if res.Events == 0 {
		return nil, fmt.Errorf("processed 0 events")
	}
	out, err := canonical(res)
	if err != nil {
		return nil, fmt.Errorf("non-finite field: %w", err)
	}
	if !faulty {
		var delivered int64
		for _, f := range res.Flows {
			delivered += f.PktsDelivered
		}
		if delivered == 0 {
			return nil, fmt.Errorf("delivered 0 packets on a fault-free scenario")
		}
	}
	if res.PoolInUse > poolLimit {
		return nil, fmt.Errorf("PoolInUse %d above %d", res.PoolInUse, poolLimit)
	}
	return out, nil
}
