package network

import (
	"bytes"
	"fmt"
	"testing"

	"ripple/internal/core"
	"ripple/internal/golden"
	"ripple/internal/radio"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

// limitOne sets cfg's per-frame packet limit to 1.
func limitOne(cfg *Config) {
	cfg.RippleOpts.MaxAgg = 1
}

// "D" and "R1" are not mechanisms of their own: DCF is AFR and RIPPLE-noagg
// is RIPPLE, each with the per-frame packet limit at 1. Each pair gives the
// same Result bytes on a saturated TCP line and on Fig. 1's VoIP load.
func TestLimitOneIsTheNoAggregationKind(t *testing.T) {
	line, path := topology.Line(3)
	scenarios := []struct {
		name string
		cfg  Config
	}{
		{"line-ftp", Config{Positions: line.Positions, Flows: []FlowSpec{{ID: 1, Path: path, Kind: FTP}},
			Duration: sim.Second}},
		{"fig1-voip", voipFig1Config(sim.Second)},
	}
	for _, s := range scenarios {
		for _, pair := range [][2]SchemeKind{{DCF, AFR}, {RippleNoAgg, Ripple}} {
			for seed := uint64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("%s/%v/seed%d", s.name, pair[0], seed), func(t *testing.T) {
					kind, mech := s.cfg, s.cfg
					kind.Scheme, kind.Seed = pair[0], seed
					mech.Scheme, mech.Seed = pair[1], seed
					limitOne(&mech)
					want, got := runJSON(t, kind, nil), runJSON(t, mech, nil)
					if !bytes.Equal(got, want) {
						t.Fatalf("%v at limit 1 differs from %v:\n%s", pair[1], pair[0], golden.Diff(want, got))
					}
				})
			}
		}
	}
}

// The zero core.Options is the paper's configuration, so spelling out one
// of its values changes nothing: RippleOpts{MaxAgg: 16} alone keeps Rq on
// and relays deferring.
func TestPaperLimitAloneIsTheZeroOptions(t *testing.T) {
	cfg := geometryConfigs()["fig1"]
	cfg.Radio = radio.DefaultConfig()
	cfg.Radio.BitErrorRate = 1e-5 // partial corruption: Rq has gaps to fill
	want := runJSON(t, cfg, nil)
	cfg.RippleOpts = core.Options{MaxAgg: 16}
	if got := runJSON(t, cfg, nil); !bytes.Equal(got, want) {
		t.Fatalf("RippleOpts{MaxAgg: 16} differs from the zero RippleOpts:\n%s", golden.Diff(want, got))
	}
}

// LocalAggOnRelay alone turns piggybacking on, with every other option at
// the paper's value: the run is the one the options spelled out in full
// give, and its MAC counters are not those of a run without it.
func TestLocalAggAloneIsTheFullForm(t *testing.T) {
	short := localAggConfig()
	short.RippleOpts = core.Options{LocalAggOnRelay: true}
	full := short
	full.RippleOpts = core.Options{MaxAgg: 16, RqHold: 25 * sim.Millisecond, RqCap: 128, LocalAggOnRelay: true}
	off := short
	off.RippleOpts = core.Options{}
	res, err := Run(short)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := golden.Marshal(t, res), runJSON(t, full, nil); !bytes.Equal(got, want) {
		t.Fatalf("RippleOpts{LocalAggOnRelay: true} differs from the full form:\n%s", golden.Diff(want, got))
	}
	without, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	if res.MAC == without.MAC {
		t.Fatal("RippleOpts{LocalAggOnRelay: true} left the MAC counters unchanged: the option was dropped")
	}
}

// DstMaxAgg is a station's limit: two flows that end at one station and set
// different values hold it to the smaller, whichever flow sets it, and an
// unset value defers to the other flow's.
func TestDstMaxAggSmallestSetValueWins(t *testing.T) {
	line, path := topology.Line(3)
	for _, kind := range []SchemeKind{AFR, Ripple} {
		t.Run(kind.String(), func(t *testing.T) {
			run := func(a, b int) []byte {
				return runJSON(t, Config{Positions: line.Positions, Scheme: kind, Duration: sim.Second, Seed: 1,
					Flows: []FlowSpec{
						{ID: 1, Path: path, Kind: FTP, DstMaxAgg: a},
						{ID: 2, Path: path[2:], Kind: FTP, DstMaxAgg: b},
					}}, nil)
			}
			want := run(2, 0)
			for _, c := range [][2]int{{0, 2}, {4, 2}, {2, 4}, {2, 2}} {
				if got := run(c[0], c[1]); !bytes.Equal(got, want) {
					t.Errorf("DstMaxAgg %d and %d differ from 2 alone:\n%s", c[0], c[1], golden.Diff(want, got))
				}
			}
			if four := run(4, 0); bytes.Equal(four, want) || bytes.Equal(run(0, 0), four) {
				t.Error("the destination's limit does not shape the run: limits 2, 4 and 16 are not told apart")
			}
		})
	}
}
