package radio

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"ripple/internal/phys"
	"ripple/internal/pkt"
	"ripple/internal/sim"
)

// planPositions is a small asymmetric layout (no two equal distances).
func planPositions() []Pos {
	return []Pos{{0, 0}, {110, 0}, {200, 30}, {90, 160}}
}

func TestLinkPlanMatchesPrivateBuild(t *testing.T) {
	for _, sigma := range []float64{0, 6} {
		cfg := DefaultConfig()
		cfg.PruneSigma = sigma
		plan := NewLinkPlan(cfg, planPositions())

		eng := sim.NewEngine()
		rng := sim.NewRNG(7, 1)
		private := NewMediumOn(eng, NewLinkPlan(cfg, planPositions()), phys.Default(), rng)
		shared := NewMediumOn(sim.NewEngine(), plan, phys.Default(), sim.NewRNG(7, 1))

		for a := 0; a < len(planPositions()); a++ {
			for b := 0; b < len(planPositions()); b++ {
				if private.Distance(pkt.NodeID(a), pkt.NodeID(b)) != shared.Distance(pkt.NodeID(a), pkt.NodeID(b)) {
					t.Fatalf("sigma %v: distance(%d,%d) differs", sigma, a, b)
				}
			}
			pa := pkt.NodeID(a)
			if !reflect.DeepEqual(private.Neighbors(pa), shared.Neighbors(pa)) {
				t.Fatalf("sigma %v: neighbor list of %d differs", sigma, a)
			}
		}
		if private.Config() != shared.Config() {
			t.Fatalf("sigma %v: configs differ", sigma)
		}
	}
}

func TestSharedPlanRunIsRNGBitIdentical(t *testing.T) {
	// Two mediums — one private build, one on a shared plan — fed the same
	// frame sequence must produce identical counters and shadowing draws.
	cfg := DefaultConfig()
	cfg.ShadowSigmaDB = 6
	plan := NewLinkPlan(cfg, planPositions())

	run := func(m *Medium, eng *sim.Engine) Counters {
		macs := make([]*nullMAC, plan.Stations())
		for i := range macs {
			macs[i] = &nullMAC{}
			m.Attach(pkt.NodeID(i), macs[i])
		}
		for i := 0; i < 50; i++ {
			tx := pkt.NodeID(i % plan.Stations())
			f := &pkt.Frame{
				Kind: pkt.Data, Tx: tx, Rx: pkt.NodeID((i + 1) % plan.Stations()),
				Packets:  []*pkt.Packet{{UID: uint64(i), Bytes: 500}},
				Duration: 100 * sim.Microsecond,
			}
			m.Transmit(f)
			eng.Run(sim.Time(i+1) * 300 * sim.Microsecond)
		}
		eng.Run(sim.Second)
		return m.Counters
	}

	engA := sim.NewEngine()
	a := run(NewMediumOn(engA, NewLinkPlan(cfg, planPositions()), phys.Default(), sim.NewRNG(3, 1)), engA)
	engB := sim.NewEngine()
	b := run(NewMediumOn(engB, plan, phys.Default(), sim.NewRNG(3, 1)), engB)
	if a != b {
		t.Fatalf("counters differ:\nprivate %+v\nshared  %+v", a, b)
	}
}

// ascNeighbors is station i's decoded row: its neighbour IDs, ascending.
func ascNeighbors(pl *LinkPlan, i int) []int32 {
	var ids []int32
	pl.EachAscNeighborID(i, func(j int32) { ids = append(ids, j) })
	return ids
}

// has reports whether the plan stores the a→b link: b is not a and, in a
// pruned plan, cleared the pruning cutoff.
func (pl *LinkPlan) has(a, b int) bool {
	_, ok := slices.BinarySearch(ascNeighbors(pl, a), int32(b))
	return ok
}

// randomCity spreads n stations uniformly over a side×side square with a
// deterministic RNG (layout is a pure function of the arguments).
func randomCity(n int, side float64, seed uint64) []Pos {
	rng := sim.NewRNG(seed, 2)
	positions := make([]Pos, n)
	for i := range positions {
		positions[i] = Pos{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	return positions
}

// TestPrunedPlanMatchesBruteForce pits the grid-built sparse plan against a
// brute-force all-pairs reference on a 500-station random world: the kept
// neighbor sets, the transmit rows' power ordering and every derived value
// must be identical — the spatial grid is a candidate filter, never an
// approximation. The accessors must also agree with the dense (unpruned)
// plan on every pair, including pruned ones (computed on demand).
func TestPrunedPlanMatchesBruteForce(t *testing.T) {
	const n, side = 500, 10000.0
	positions := randomCity(n, side, 11)
	for _, sigma := range []float64{3, DefaultPruneSigma} {
		cfg := DefaultConfig()
		cfg.PruneSigma = sigma
		plan := NewLinkPlan(cfg, positions)
		denseCfg := cfg
		denseCfg.PruneSigma = 0
		dense := NewLinkPlan(denseCfg, positions)

		cutoff := cfg.CSThreshDBm - cfg.PruneSigma*cfg.ShadowSigmaDB
		prunedPairs := 0
		for a := 0; a < n; a++ {
			type cand struct {
				id  int32
				dbm float64
			}
			var want []cand
			for b := 0; b < n; b++ {
				if b == a {
					continue
				}
				p := cfg.MeanRxPowerDBm(Dist(positions[a], positions[b]))
				if p < cutoff {
					prunedPairs++
					continue
				}
				want = append(want, cand{int32(b), p})
			}
			sort.Slice(want, func(i, j int) bool {
				if want[i].dbm != want[j].dbm {
					return want[i].dbm > want[j].dbm
				}
				return want[i].id < want[j].id
			})
			row, _ := transmitRow(plan, a)
			if len(row) != len(want) {
				t.Fatalf("sigma %v: station %d keeps %d neighbors, brute force says %d",
					sigma, a, len(row), len(want))
			}
			for k := range want {
				if row[k].id != want[k].id || row[k].dbm != want[k].dbm {
					t.Fatalf("sigma %v: station %d slot %d = (%d, %g), want (%d, %g)",
						sigma, a, k, row[k].id, row[k].dbm, want[k].id, want[k].dbm)
				}
			}
			asc := ascNeighbors(plan, a)
			if len(asc) != len(want) || !sort.SliceIsSorted(asc, func(i, j int) bool { return asc[i] < asc[j] }) {
				t.Fatalf("sigma %v: EachAscNeighborID(%d) not the sorted kept set: %v", sigma, a, asc)
			}
			for b := 0; b < n; b++ {
				if plan.MeanDBm(a, b) != dense.MeanDBm(a, b) {
					t.Fatalf("sigma %v: MeanDBm(%d,%d) differs from dense", sigma, a, b)
				}
				if plan.Distance(a, b) != dense.Distance(a, b) {
					t.Fatalf("sigma %v: Distance(%d,%d) differs from dense", sigma, a, b)
				}
			}
		}
		if prunedPairs == 0 {
			t.Fatalf("sigma %v: layout never triggers pruning — the test proves nothing", sigma)
		}
		if plan.Links() != n*(n-1)-prunedPairs {
			t.Fatalf("sigma %v: plan stores %d links, brute force kept %d",
				sigma, plan.Links(), n*(n-1)-prunedPairs)
		}
	}
}

// nullMAC absorbs upcalls.
type nullMAC struct{}

func (*nullMAC) ChannelBusy()                     {}
func (*nullMAC) ChannelIdle()                     {}
func (*nullMAC) FrameReceived(*pkt.Frame, []bool) {}
func (*nullMAC) FrameCorrupted()                  {}
func (*nullMAC) TxDone(*pkt.Frame)                {}
