package network_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"ripple/internal/campaign"
	"ripple/internal/golden"
	"ripple/internal/network"
	"ripple/internal/phys"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
	"ripple/internal/topology"
	"ripple/internal/traffic"
	"ripple/internal/transport"
)

// TestEveryGateRefusesEachRangeRule: a Config that breaks exactly one range
// rule is refused by Validate, BuildWorld, Run, Grid.Plan and NewPlan alike,
// each with a *ConfigError naming the field by its path in the Config's
// JSON form — whoever built the Config, with no public builder in between.
func TestEveryGateRefusesEachRangeRule(t *testing.T) {
	tcp := func(f func(*transport.TCPConfig)) func(*network.Config) {
		return func(c *network.Config) {
			cfg := transport.DefaultTCPConfig()
			f(&cfg)
			c.Flows[1].Kind, c.Flows[1].TCP = network.FTP, &cfg
		}
	}
	voip := func(f func(*transport.VoIPConfig)) func(*network.Config) {
		return func(c *network.Config) {
			cfg := transport.DefaultVoIPConfig()
			f(&cfg)
			c.Flows[1].Kind, c.Flows[1].VoIP = network.VoIPTraffic, &cfg
		}
	}
	web := func(f func(*traffic.WebConfig)) func(*network.Config) {
		return func(c *network.Config) {
			var cfg traffic.WebConfig
			cfg.Normalize()
			f(&cfg)
			c.Flows[1].Kind, c.Flows[1].Web = network.Web, &cfg
		}
	}
	routes := func(r network.RoutingSpec) func(*network.Config) {
		return func(c *network.Config) { c.Routing = r }
	}
	moves := func(m network.MobilitySpec) func(*network.Config) {
		return func(c *network.Config) { c.Mobility = m }
	}
	place := func(i int, p radio.Pos) func(*network.Config) {
		return func(c *network.Config) {
			c.Positions = slices.Clone(c.Positions)
			c.Positions[i] = p
		}
	}
	rows := []struct {
		field string
		set   func(*network.Config)
	}{
		{"Duration", func(c *network.Config) { c.Duration = -sim.Second }},
		{"MaxForwarders", func(c *network.Config) { c.MaxForwarders = -3 }},
		{"RTSThreshold", func(c *network.Config) { c.RTSThreshold = -1 }},
		{"RippleOpts.MaxAgg", func(c *network.Config) { c.RippleOpts.MaxAgg = -1 }},
		{"Radio.BitErrorRate", func(c *network.Config) { c.Radio.BitErrorRate = 2 }},
		{"Radio.BitErrorRate", func(c *network.Config) { c.Radio.BitErrorRate = -1e-9 }},
		{"Radio.PruneSigma", func(c *network.Config) { c.Radio.PruneSigma = -1 }},
		// A partial Radio or Phy is refused, not replaced by the defaults.
		{"Radio.PathLossExp", func(c *network.Config) { c.Radio = radio.Config{BitErrorRate: 1e-4, PruneSigma: 2} }},
		{"Phy.SIFS", func(c *network.Config) { c.Phy = phys.Params{DataBps: 6e6, BasicBps: 6e6} }},
		{"Routing.Alpha", routes(network.RoutingSpec{Kind: network.RouteCongestion, Alpha: -0.5})},
		{"Routing.Alpha", routes(network.RoutingSpec{Kind: network.RouteCongestion, Alpha: math.NaN()})},
		{"Routing.Epoch", routes(network.RoutingSpec{Kind: network.RouteCongestion, Epoch: -1})},
		{"Routing.K", routes(network.RoutingSpec{Kind: network.RouteETX, K: -2, Rule: routing.SizeNearDst})},
		{"Mobility.Epoch", moves(network.MobilitySpec{Kind: network.MobilityMarkov, Epoch: -sim.Second})},
		{"Mobility.MinSpeed", moves(network.MobilitySpec{Kind: network.MobilityWaypoint, MinSpeed: 10, MaxSpeed: 5})},
		{"Mobility.MinSpeed", moves(network.MobilitySpec{Kind: network.MobilityWaypoint, MinSpeed: -1})},
		{"Mobility.MaxSpeed", moves(network.MobilitySpec{Kind: network.MobilityWaypoint, MaxSpeed: -3})},
		{"Mobility.Pause", moves(network.MobilitySpec{Kind: network.MobilityWaypoint, Pause: -1})},
		{"Mobility.Places", moves(network.MobilitySpec{Kind: network.MobilityMarkov, Places: -4})},
		{"Mobility.Stay", moves(network.MobilitySpec{Kind: network.MobilityMarkov, Stay: 1})},
		{"Mobility.Stay", moves(network.MobilitySpec{Kind: network.MobilityMarkov, Stay: 1.5})},
		{"Mobility.Stay", moves(network.MobilitySpec{Kind: network.MobilityMarkov, Stay: -0.2})},
		{"Faults.Epoch", func(c *network.Config) { c.Faults.FlapLinks, c.Faults.Epoch = 1, -1 }},
		{"Faults.MTBF", func(c *network.Config) { c.Faults.FlapLinks, c.Faults.MTBF = 1, -sim.Second }},
		{"Faults.MTTR", func(c *network.Config) { c.Faults.MTBF, c.Faults.MTTR = sim.Second, -2*sim.Second }},
		{"Faults.FlapLinks", func(c *network.Config) { c.Faults.FlapLinks = -1 }},
		{"Faults.FlapUp", func(c *network.Config) { c.Faults.FlapLinks, c.Faults.FlapUp = 1, -1 }},
		{"Faults.FlapDown", func(c *network.Config) { c.Faults.FlapLinks, c.Faults.FlapDown = 1, -1 }},
		{"Faults.NoiseBursts", func(c *network.Config) { c.Faults.NoiseBursts = -2 }},
		{"Faults.NoiseEvery", func(c *network.Config) { c.Faults.NoiseBursts, c.Faults.NoiseEvery = 1, -1 }},
		{"Faults.NoiseLen", func(c *network.Config) { c.Faults.NoiseBursts, c.Faults.NoiseLen = 1, -1 }},
		{"Faults.NoisePenaltyDB", func(c *network.Config) { c.Faults.NoiseBursts, c.Faults.NoisePenaltyDB = 1, -20 }},
		{"Faults.NoiseRadius", func(c *network.Config) { c.Faults.NoiseBursts, c.Faults.NoiseRadius = 1, -250 }},
		{"Faults.NoisePenaltyDB", func(c *network.Config) { c.Faults.NoiseBursts, c.Faults.NoisePenaltyDB = 1, math.NaN() }},
		{"Faults.NoiseRadius", func(c *network.Config) { c.Faults.NoiseBursts, c.Faults.NoiseRadius = 1, math.NaN() }},
		{"Faults.PartitionAt", func(c *network.Config) { c.Faults.PartitionAt, c.Faults.PartitionDur = -1, sim.Second }},
		{"Faults.PartitionDur", func(c *network.Config) { c.Faults.FlapLinks, c.Faults.PartitionDur = 1, -1 }},
		{"Faults.FailureThreshold", func(c *network.Config) { c.Faults.FlapLinks, c.Faults.FailureThreshold = 1, -1 }},
		{"Flows[1].Start", func(c *network.Config) { c.Flows[1].Start = -sim.Millisecond }},
		{"Flows[1].CBRInterval", func(c *network.Config) { c.Flows[1].CBRInterval = -sim.Second }},
		{"Flows[1].CBRPacketBytes", func(c *network.Config) { c.Flows[1].CBRPacketBytes = -1 }},
		{"Flows[1].DstMaxAgg", func(c *network.Config) { c.Flows[1].DstMaxAgg = -1 }},
		{"Flows[1].TCP.MSS", tcp(func(p *transport.TCPConfig) { p.MSS = -1 })},
		{"Flows[1].TCP.AckBytes", tcp(func(p *transport.TCPConfig) { p.AckBytes = -1 })},
		{"Flows[1].TCP.InitialCwnd", tcp(func(p *transport.TCPConfig) { p.InitialCwnd = -1 })},
		{"Flows[1].TCP.MaxCwnd", tcp(func(p *transport.TCPConfig) { p.MaxCwnd = -1 })},
		{"Flows[1].TCP.MaxCwnd", tcp(func(p *transport.TCPConfig) { p.MaxCwnd = 1 << 16 })},
		{"Flows[1].TCP.MaxCwnd", tcp(func(p *transport.TCPConfig) { p.MaxCwnd = 0.5 })},
		{"Flows[1].TCP.SSThresh", tcp(func(p *transport.TCPConfig) { p.SSThresh = -1 })},
		{"Flows[1].TCP.InitialCwnd", tcp(func(p *transport.TCPConfig) { p.InitialCwnd = math.NaN() })},
		{"Flows[1].TCP.MaxCwnd", tcp(func(p *transport.TCPConfig) { p.MaxCwnd = math.NaN() })},
		{"Flows[1].TCP.SSThresh", tcp(func(p *transport.TCPConfig) { p.SSThresh = math.NaN() })},
		{"Flows[1].TCP.DupThresh", tcp(func(p *transport.TCPConfig) { p.DupThresh = -1 })},
		{"Flows[1].TCP.RTOMin", tcp(func(p *transport.TCPConfig) { p.RTOMin = -1 })},
		{"Flows[1].TCP.RTOInit", tcp(func(p *transport.TCPConfig) { p.RTOInit = -1 })},
		{"Flows[1].TCP.RTOMax", tcp(func(p *transport.TCPConfig) { p.RTOMax = -1 })},
		{"Flows[1].VoIP.BitsPerSecond", voip(func(p *transport.VoIPConfig) { p.BitsPerSecond = -96e3 })},
		{"Flows[1].VoIP.PacketInterval", voip(func(p *transport.VoIPConfig) { p.PacketInterval = -1 })},
		{"Flows[1].VoIP.OnMean", voip(func(p *transport.VoIPConfig) { p.OnMean = -1 })},
		{"Flows[1].VoIP.OffMean", voip(func(p *transport.VoIPConfig) { p.OffMean = -1 })},
		{"Flows[1].VoIP.DelayBudget", voip(func(p *transport.VoIPConfig) { p.DelayBudget = -1 })},
		{"Flows[1].VoIP.BitsPerSecond", voip(func(p *transport.VoIPConfig) { p.BitsPerSecond = math.NaN() })},
		{"Flows[1].VoIP.BitsPerSecond", voip(func(p *transport.VoIPConfig) { p.BitsPerSecond = 100 })},
		{"Flows[1].Web.MeanTransferBytes", web(func(p *traffic.WebConfig) { p.MeanTransferBytes = -1 })},
		{"Flows[1].Web.ParetoShape", web(func(p *traffic.WebConfig) { p.ParetoShape = 1 })},
		{"Flows[1].Web.OffMean", web(func(p *traffic.WebConfig) { p.OffMean = -1 })},
		{"Flows[1].Web.MeanTransferBytes", web(func(p *traffic.WebConfig) { p.MeanTransferBytes = math.NaN() })},
		{"Positions[1]", place(1, radio.Pos{X: math.NaN()})},
		{"Positions[2]", place(2, radio.Pos{X: 5e8, Y: 5e8})},
	}
	top, path := topology.Line(3)
	base := func() network.Config {
		return network.Config{
			Positions: top.Positions,
			Radio:     radio.DefaultConfig(),
			Scheme:    network.Ripple,
			Duration:  100 * sim.Millisecond,
			Flows: []network.FlowSpec{
				{ID: 1, Path: path, Kind: network.FTP},
				{ID: 2, Path: slices.Clone(path[:2]), Kind: network.CBRTraffic},
			},
		}
	}
	if b := base(); network.Validate(&b) != nil {
		t.Fatalf("base config refused: %v", network.Validate(&b))
	}
	for _, row := range rows {
		cfg := base()
		row.set(&cfg)
		grid := campaign.Grid{Name: "rule", Axes: []campaign.Axis{campaign.A("row", "0")},
			Build: func(campaign.Point) (network.Config, error) { return cfg, nil }}
		var err [6]error
		err[0] = network.Validate(&cfg)
		_, err[1] = network.BuildWorld(cfg)
		_, err[2] = network.Run(cfg)
		_, err[3] = grid.Plan()
		_, err[4] = campaign.NewPlan("rule", []campaign.CellSpec{{Label: row.field, Config: cfg, Seeds: []uint64{1}}})
		gates := []string{"Validate", "BuildWorld", "Run", "Grid.Plan", "NewPlan"}
		if strings.HasPrefix(row.field, "Positions") || strings.HasPrefix(row.field, "Radio.") {
			// LinkTable takes what a link plan is built from, and refuses
			// it as Validate does.
			_, err[5] = network.LinkTable(cfg.Radio, cfg.Positions)
			gates = append(gates, "LinkTable")
		}
		for i, gate := range gates {
			var ce *network.ConfigError
			if !errors.As(err[i], &ce) || ce.Field != row.field {
				t.Errorf("%s: %s returned %v, want a *ConfigError on %s", row.field, gate, err[i], row.field)
			}
		}
	}
}

// TestZeroTrafficFieldIsThePapersValue: a TCP, VoIP or Web config that is
// the paper's but for one zero field runs the Result of the same flow with
// no config at all — a zero field selects the paper's value. Each run has a
// wall-clock bound: a zero RTO or packet interval that reached a transport
// would re-arm its timer for the current instant forever, and Run would
// never return.
func TestZeroTrafficFieldIsThePapersValue(t *testing.T) {
	const bound = 10 * time.Second
	top, path := topology.Line(3)
	run := func(t *testing.T, f network.FlowSpec) []byte {
		t.Helper()
		cfg := network.Config{Positions: top.Positions, Scheme: network.Ripple,
			Duration: sim.Second, Seed: 1, Flows: []network.FlowSpec{f}}
		type outcome struct {
			json []byte
			err  error
		}
		done := make(chan outcome, 1) // a run past the bound is abandoned
		go func() {
			res, err := network.Run(cfg)
			if err != nil {
				done <- outcome{nil, err}
				return
			}
			b, err := json.Marshal(res)
			done <- outcome{b, err}
		}()
		select {
		case o := <-done:
			if o.err != nil {
				t.Fatal(o.err)
			}
			return o.json
		case <-time.After(bound):
			t.Fatalf("Run did not return within %v of wall time", bound)
			return nil
		}
	}
	// each adds one case per field of the paper's config def, with that
	// field zeroed; set puts a config into a flow of kind.
	type zeroCase struct {
		name string
		flow network.FlowSpec
	}
	var cases []zeroCase
	each := func(prefix string, kind network.TrafficKind, def any, set func(*network.FlowSpec, any)) {
		v := reflect.ValueOf(def)
		for i := range v.NumField() {
			c := reflect.New(v.Type())
			c.Elem().Set(v)
			c.Elem().Field(i).SetZero()
			f := network.FlowSpec{ID: 1, Path: path, Kind: kind}
			set(&f, c.Interface())
			cases = append(cases, zeroCase{prefix + v.Type().Field(i).Name, f})
		}
	}
	each("TCP.", network.FTP, transport.DefaultTCPConfig(),
		func(f *network.FlowSpec, c any) { f.TCP = c.(*transport.TCPConfig) })
	each("VoIP.", network.VoIPTraffic, transport.DefaultVoIPConfig(),
		func(f *network.FlowSpec, c any) { f.VoIP = c.(*transport.VoIPConfig) })
	var web traffic.WebConfig
	web.Normalize()
	each("Web.", network.Web, web,
		func(f *network.FlowSpec, c any) { f.Web = c.(*traffic.WebConfig) })
	want := map[network.TrafficKind][]byte{}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if want[c.flow.Kind] == nil {
				want[c.flow.Kind] = run(t, network.FlowSpec{ID: 1, Path: path, Kind: c.flow.Kind})
			}
			if got := run(t, c.flow); !bytes.Equal(got, want[c.flow.Kind]) {
				t.Errorf("Result differs from the nil config's:\n%s", golden.Diff(want[c.flow.Kind], got))
			}
		})
	}
}
