package network

import (
	"bytes"
	"testing"

	"ripple/internal/golden"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

// Metamorphic properties: a change to a scenario that the model must not
// see leaves the Result JSON byte-identical, and one it must see moves the
// Result the way the change says. docs/model.md lists them.

// relabelConfig is Fig. 1's three ROUTE0 paths carrying two FTP flows and a
// paced CBR flow. Web and VoIP flows are left out: their traffic streams
// are seeded from the flow ID, so relabelling them changes what they send.
func relabelConfig(kind SchemeKind, ids [3]int) Config {
	route := routing.Route0()
	return Config{
		Positions: topology.Fig1().Positions,
		Scheme:    kind,
		Flows: []FlowSpec{
			{ID: ids[0], Path: route.Flow1, Kind: FTP},
			{ID: ids[1], Path: route.Flow2, Kind: FTP, Start: 5 * sim.Millisecond},
			{ID: ids[2], Path: route.Flow3, Kind: CBRTraffic, CBRInterval: 4 * sim.Millisecond},
		},
		Duration: 2 * sim.Second,
		Seed:     3,
	}
}

// A flow ID is a label: arbitrary unique integers, negative or beyond 32
// bits, name the same flows. Nothing on the packet path may index by it.
func TestFlowIDRelabelIsInvisible(t *testing.T) {
	plain := [3]int{1, 2, 3}
	odd := [3]int{-7, 1 << 40, 5}
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			want := runJSON(t, relabelConfig(kind, plain), nil)
			got := runJSON(t, relabelConfig(kind, odd), func(res *Result) {
				for i := range res.Flows {
					if res.Flows[i].ID != odd[i] {
						t.Fatalf("flow %d reports ID %d, want %d", i, res.Flows[i].ID, odd[i])
					}
					res.Flows[i].ID = plain[i]
				}
			})
			if !bytes.Equal(got, want) {
				t.Fatalf("relabelled flows differ ({1,2,3} → {-7,2⁴⁰,5}):\n%s", golden.Diff(want, got))
			}
		})
	}
}

// runJSON runs cfg and returns its Result's JSON, after edit (if any).
func runJSON(t *testing.T, cfg Config, edit func(*Result)) []byte {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(res)
	}
	return golden.Marshal(t, res)
}

// moved returns cfg with every station position mapped through f.
func moved(cfg Config, f func(radio.Pos) radio.Pos) Config {
	pos := make([]radio.Pos, len(cfg.Positions))
	for i, p := range cfg.Positions {
		pos[i] = f(p)
	}
	cfg.Positions = pos
	return cfg
}

// geometryConfigs are the scenarios the geometric properties hold on: Fig. 1
// with ROUTE0's three FTP flows, and a pruned 200-station city routed by ETX.
func geometryConfigs() map[string]Config {
	var flows []FlowSpec
	for g, p := range routing.Route0().Flows() {
		flows = append(flows, FlowSpec{ID: g + 1, Path: p, Kind: FTP})
	}
	positions, cityFlows := cityWithFlows(200, 4, 10*sim.Millisecond)
	return map[string]Config{
		"fig1": {Positions: topology.Fig1().Positions, Scheme: Ripple, Flows: flows,
			Duration: sim.Second, Seed: 5},
		"city": {Positions: positions, Radio: topology.CityRadio(), Scheme: Ripple, Flows: cityFlows,
			Routing: RoutingSpec{Kind: RouteETX}, Duration: 500 * sim.Millisecond, Seed: 9},
	}
}

// The model sees distances only: rotating, reflecting or translating the
// whole layout changes no byte of the Result.
func TestRigidMotionIsInvisible(t *testing.T) {
	motions := []struct {
		name string
		f    func(radio.Pos) radio.Pos
	}{
		{"rotate90", func(p radio.Pos) radio.Pos { return radio.Pos{X: -p.Y, Y: p.X} }},
		{"reflect", func(p radio.Pos) radio.Pos { return radio.Pos{X: -p.X, Y: p.Y} }},
		{"translate", func(p radio.Pos) radio.Pos { return radio.Pos{X: p.X + 1024, Y: p.Y - 2048} }},
		{"nudge", func(p radio.Pos) radio.Pos { return radio.Pos{X: p.X + 0.3, Y: p.Y + 0.3} }},
	}
	for name, cfg := range geometryConfigs() {
		want := runJSON(t, cfg, nil)
		for _, m := range motions {
			t.Run(name+"/"+m.name, func(t *testing.T) {
				if got := runJSON(t, moved(cfg, m.f), nil); !bytes.Equal(got, want) {
					t.Fatalf("%s of the layout moves the Result:\n%s", m.name, golden.Diff(want, got))
				}
			})
		}
	}
}

// A station out of everyone's range, carrying no flow, is not part of the
// network: appending one to the city changes no byte of the Result.
func TestIdleFarStationIsInvisible(t *testing.T) {
	cfg := geometryConfigs()["city"]
	want := runJSON(t, cfg, nil)
	cfg.Positions = append(cfg.Positions[:len(cfg.Positions):len(cfg.Positions)], radio.Pos{X: 1e6, Y: 1e6})
	if got := runJSON(t, cfg, nil); !bytes.Equal(got, want) {
		t.Fatalf("an idle station at (10⁶, 10⁶) moves the Result:\n%s", golden.Diff(want, got))
	}
}

// Raising the bit error rate loses frames, so it lowers delivery. The
// seeds are common random numbers: each BER runs the same three seeds, and
// the sums fall strictly across BER 0 > 3e-5 > 1e-4 for every scheme.
// Finer steps are not ordered over three seeds (DCF delivers 3250 packets
// at BER 0 and 3259 at 1e-6).
func TestRaisingBERLowersDelivery(t *testing.T) {
	top, path := topology.Line(3)
	bers := []float64{0, 3e-5, 1e-4}
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			sums := make([]int64, len(bers))
			for i, ber := range bers {
				rc := radio.DefaultConfig()
				rc.BitErrorRate = ber
				for seed := uint64(1); seed <= 3; seed++ {
					res, err := Run(Config{Positions: top.Positions, Radio: rc, Scheme: kind,
						Flows: []FlowSpec{{ID: 1, Path: path, Kind: FTP}}, Duration: sim.Second, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					sums[i] += res.Flows[0].PktsDelivered
				}
			}
			t.Logf("packets delivered over seeds 1-3 at BER %v: %v", bers, sums)
			for i := 1; i < len(bers); i++ {
				if sums[i] >= sums[i-1] {
					t.Errorf("BER %g delivers %d packets, BER %g %d: want fewer at the higher BER",
						bers[i], sums[i], bers[i-1], sums[i-1])
				}
			}
		})
	}
}
