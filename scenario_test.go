package ripple

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"ripple/internal/network"
	"ripple/internal/radio"
	"ripple/internal/traffic"
	"ripple/internal/transport"
)

// The toConfig error paths: a scenario with an unknown scheme, an invalid
// radio, a missing traffic model or out-of-range traffic parameters must
// be rejected with a message naming what was wrong, before any run starts.

func validScenario() Scenario {
	top, path := LineTopology(2)
	return Scenario{
		Topology: top,
		Scheme:   SchemeRIPPLE,
		Flows:    []Flow{{ID: 1, Path: path, Traffic: FTP{}}},
		Duration: Second,
	}
}

func TestToConfigRejectsUnknownScheme(t *testing.T) {
	for _, scheme := range []Scheme{0, Scheme(99), Scheme(-1)} {
		s := validScenario()
		s.Scheme = scheme
		if _, err := s.toConfig(); err == nil {
			t.Errorf("scheme %d: no error", int(scheme))
		} else if !strings.Contains(err.Error(), "unknown scheme") {
			t.Errorf("scheme %d: err = %v", int(scheme), err)
		}
		// The same failure must surface through Run.
		if _, err := Run(s); err == nil {
			t.Errorf("scheme %d: Run accepted it", int(scheme))
		}
	}
}

func TestToConfigRejectsInvalidBER(t *testing.T) {
	for _, ber := range []float64{-1, -1e-9, 1, 1.5} {
		s := validScenario()
		s.Radio = DefaultRadio().WithBER(ber)
		if _, err := s.toConfig(); err == nil {
			t.Errorf("BER %g: no error", ber)
		} else if !strings.Contains(err.Error(), "bit error rate") {
			t.Errorf("BER %g: err = %v", ber, err)
		}
	}
	// WithBER(0) is valid: an explicit error-free channel.
	s := validScenario()
	s.Radio = DefaultRadio().WithBER(0)
	if _, err := s.toConfig(); err != nil {
		t.Errorf("WithBER(0): %v", err)
	}
}

func TestToConfigPruneSigma(t *testing.T) {
	// Profile default: pruning on at radio.DefaultPruneSigma.
	s := validScenario()
	cfg, err := s.toConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Radio.PruneSigma != radio.DefaultPruneSigma {
		t.Errorf("default PruneSigma = %g, want %g", cfg.Radio.PruneSigma, float64(radio.DefaultPruneSigma))
	}
	// WithPruneSigma(0) is the explicit exact-medium escape hatch.
	s.Radio = DefaultRadio().WithPruneSigma(0)
	if cfg, err = s.toConfig(); err != nil {
		t.Fatal(err)
	} else if cfg.Radio.PruneSigma != 0 {
		t.Errorf("WithPruneSigma(0) → PruneSigma = %g, want 0", cfg.Radio.PruneSigma)
	}
	if got := s.Radio.String(); !strings.Contains(got, "prune=0") {
		t.Errorf("Radio.String() = %q, want prune=0 mentioned", got)
	}
	// Negative is rejected.
	s.Radio = DefaultRadio().WithPruneSigma(-1)
	if _, err := s.toConfig(); err == nil || !strings.Contains(err.Error(), "prune sigma") {
		t.Errorf("WithPruneSigma(-1): err = %v", err)
	}
}

func TestToConfigRejectsMissingTraffic(t *testing.T) {
	s := validScenario()
	s.Flows = []Flow{{ID: 5, Path: s.Flows[0].Path}}
	_, err := s.toConfig()
	if err == nil {
		t.Fatal("nil traffic: no error")
	}
	// The message names the offending flow.
	if !strings.Contains(err.Error(), "no traffic model") || !strings.Contains(err.Error(), "flow 5") {
		t.Errorf("nil traffic: err = %v", err)
	}
}

func TestToConfigRejectsInvalidTrafficParams(t *testing.T) {
	cases := []struct {
		name    string
		traffic TrafficSpec
		errPart string
	}{
		{"negative CBR interval", CBR{Interval: -Second}, "CBR interval"},
		{"negative CBR size", CBR{PacketSize: -1}, "CBR packet size"},
		{"pareto shape below 1", Web{ParetoShape: 0.5}, "Pareto shape"},
		{"negative web bytes", Web{MeanTransferBytes: -1}, "web parameter"},
		{"negative voip rate", VoIP{BitrateKbps: -96}, "VoIP parameter"},
		{"negative tcp mss", FTP{TCP: TCPParams{MSS: -1}}, "TCP parameter"},
		{"negative tcp rto", FTP{TCP: TCPParams{MSS: 1000, RTOMin: -Second}}, "TCP parameter"},
		{"huge tcp window", FTP{TCP: TCPParams{MaxCwnd: 1e12}}, "TCP parameter MaxCwnd"},
	}
	for _, c := range cases {
		s := validScenario()
		s.Flows[0].Traffic = c.traffic
		_, err := s.toConfig()
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.errPart) || !strings.Contains(err.Error(), "flow 1") {
			t.Errorf("%s: err = %v", c.name, err)
		}
	}
}

// A negative time or count is not a default: each is rejected by name, by
// Validate and by Run alike (before this, Duration -1 ran to all-zero rows and
// the others ran as if unset).
func TestToConfigRejectsNegativeFields(t *testing.T) {
	cases := []struct {
		field string
		set   func(*Scenario)
	}{
		{"Scenario.Duration", func(s *Scenario) { s.Duration = -Second }},
		{"Flow.Start", func(s *Scenario) { s.Flows[0].Start = -Millisecond }},
		{"Scenario.MaxForwarders", func(s *Scenario) { s.MaxForwarders = -1 }},
		{"Scenario.MaxAggregation", func(s *Scenario) { s.MaxAggregation = -16 }},
		{"Scenario.RTSThreshold", func(s *Scenario) { s.RTSThreshold = -1 }},
	}
	for _, c := range cases {
		s := validScenario()
		c.set(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), c.field) || !strings.Contains(err.Error(), "negative") {
			t.Errorf("%s: Validate err = %v, want one naming the field", c.field, err)
			continue
		}
		if res, rerr := Run(s); rerr == nil || rerr.Error() != err.Error() {
			t.Errorf("%s: Run returned %v, %v; want Validate's error", c.field, res, rerr)
		}
	}
	// Zero stays what it was: the default (or, for RTSThreshold, off).
	if err := validScenario().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRefusesWhatRunRefuses: a scenario the network layer cannot
// run is refused by Validate, and Run returns that same error before any
// campaign cell starts — not the cell's wrapped failure.
func TestValidateRefusesWhatRunRefuses(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Scenario)
		want string
	}{
		{"duplicate ID", func(s *Scenario) {
			s.Flows = []Flow{{ID: 5, Path: Path{0, 1}, Traffic: FTP{}}, {ID: 5, Path: Path{1, 2}, Traffic: FTP{}}}
		}, "duplicate flow id 5"},
		{"station outside", func(s *Scenario) { s.Flows[0].Path = Path{0, 9} }, "station 9 outside topology"},
		{"negative station", func(s *Scenario) { s.Flows[0].Path = Path{0, -1} }, "station -1 outside topology"},
		{"one-station path", func(s *Scenario) { s.Flows[0].Path = Path{0} }, "too short"},
		{"negative VoIP ID", func(s *Scenario) { s.Flows[0].ID, s.Flows[0].Traffic = -3, VoIP{} }, "must not be negative"},
		{"NaN TCP window", func(s *Scenario) { s.Flows[0].Traffic = FTP{TCP: TCPParams{MaxCwnd: math.NaN()}} }, "MaxCwnd must not be negative (got NaN)"},
		{"sub-1 TCP window", func(s *Scenario) { s.Flows[0].Traffic = FTP{TCP: TCPParams{MaxCwnd: 0.5}} }, "MaxCwnd must be 0 (the paper's value) or at least 1 packet (got 0.5)"},
		{"sub-byte VoIP packet", func(s *Scenario) { s.Flows[0].Traffic = VoIP{BitrateKbps: 0.1} }, "BitrateKbps, in bit/s, must fill a packet of at least one byte per packet interval (got 100)"},
		{"no flows", func(s *Scenario) { s.Flows = nil }, "no flows"},
		{"empty topology", func(s *Scenario) { s.Topology = Topology{} }, "no station positions"},
	} {
		s := validScenario()
		s.Topology, _ = LineTopology(3)
		tc.set(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate returned %v, want an error containing %q", tc.name, err, tc.want)
			continue
		}
		if _, rerr := Run(s); rerr == nil || rerr.Error() != err.Error() {
			t.Errorf("%s: Run returned %v; want Validate's %q", tc.name, rerr, err)
		}
	}
}

func TestToConfigAcceptsEveryDeclaredSchemeAndRadio(t *testing.T) {
	for _, scheme := range []Scheme{SchemeDCF, SchemeAFR, SchemePreExOR, SchemeMCExOR, SchemeRIPPLE, SchemeRIPPLENoAgg} {
		for _, r := range []Radio{{}, DefaultRadio(), HiddenRadio(), IdealRadio(), DefaultRadio().WithBER(1e-5)} {
			s := validScenario()
			s.Scheme = scheme
			s.Radio = r
			if _, err := s.toConfig(); err != nil {
				t.Errorf("scheme %v radio %v: %v", scheme, r, err)
			}
		}
	}
}

func TestToConfigAutoAssignsFlowIDs(t *testing.T) {
	s := validScenario()
	p := s.Flows[0].Path
	s.Flows = []Flow{
		{Path: p, Traffic: FTP{}},
		{Path: p, Traffic: VoIP{}},
	}
	cfg, err := s.toConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Flows[0].ID != 1 || cfg.Flows[1].ID != 2 {
		t.Fatalf("auto IDs = %d, %d, want 1, 2", cfg.Flows[0].ID, cfg.Flows[1].ID)
	}
	// Mixing explicit and auto IDs must not collide: auto assignment
	// skips IDs that are explicitly taken.
	s.Flows = []Flow{
		{Path: p, Traffic: FTP{}},
		{ID: 1, Path: p, Traffic: FTP{}},
		{Path: p, Traffic: FTP{}},
	}
	cfg, err = s.toConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Flows[0].ID != 2 || cfg.Flows[1].ID != 1 || cfg.Flows[2].ID != 3 {
		t.Fatalf("mixed IDs = %d, %d, %d, want 2, 1, 3",
			cfg.Flows[0].ID, cfg.Flows[1].ID, cfg.Flows[2].ID)
	}
}

func TestToConfigPerFlowTrafficParams(t *testing.T) {
	s := validScenario()
	p := s.Flows[0].Path
	s.Flows = []Flow{
		{ID: 1, Path: p, Traffic: VoIP{BitrateKbps: 64, PacketInterval: 10 * Millisecond}},
		{ID: 2, Path: p, Traffic: VoIP{}},
		{ID: 3, Path: p, Traffic: Web{MeanTransferBytes: 20e3, TCP: TCPParams{MaxCwnd: 8}}},
		{ID: 4, Path: p, Traffic: CBR{Interval: 5 * Millisecond, PacketSize: 200}},
	}
	cfg, err := s.toConfig()
	if err != nil {
		t.Fatal(err)
	}
	v := cfg.Flows[0].VoIP
	if v == nil || v.BitsPerSecond != 64e3 || v.PacketInterval != 10*Millisecond {
		t.Fatalf("per-flow VoIP config = %+v", v)
	}
	// Unset fields keep the paper defaults.
	if v.DelayBudget != 52*Millisecond {
		t.Fatalf("VoIP delay budget = %v, want paper default", v.DelayBudget)
	}
	if d := cfg.Flows[1].VoIP; d == nil || d.BitsPerSecond != 96e3 {
		t.Fatalf("default VoIP config = %+v", d)
	}
	w := cfg.Flows[2]
	if w.Web == nil || w.Web.MeanTransferBytes != 20e3 || w.Web.ParetoShape != 1.5 {
		t.Fatalf("per-flow web config = %+v", w.Web)
	}
	if w.TCP == nil || w.TCP.MaxCwnd != 8 || w.TCP.MSS != 1000 {
		t.Fatalf("per-flow TCP config = %+v", w.TCP)
	}
	c := cfg.Flows[3]
	if c.CBRInterval != 5*Millisecond || c.CBRPacketBytes != 200 {
		t.Fatalf("per-flow CBR config = %+v", c)
	}
}

// TestTrafficSpecMapping: each public traffic model, with every field zero
// and with every field set, becomes the FlowSpec written out here by hand —
// the paper's values where a field is zero, the field's own value where it
// is set. A zero TCPParams leaves the flow's TCP config nil (the run's
// default); a zero Web or VoIP still sets the paper's config.
func TestTrafficSpecMapping(t *testing.T) {
	paperTCP := transport.TCPConfig{
		MSS: 1000, AckBytes: 40, InitialCwnd: 2, MaxCwnd: 42, SSThresh: 42, DupThresh: 3,
		RTOMin: 200 * Millisecond, RTOInit: Second, RTOMax: 60 * Second,
	}
	setTCP := TCPParams{
		MSS: 500, AckBytes: 60, InitialCwnd: 4, MaxCwnd: 20, SSThresh: 10, DupThresh: 5,
		RTOMin: 100 * Millisecond, RTOInit: 2 * Second, RTOMax: 30 * Second,
	}
	setTCPConfig := transport.TCPConfig{
		MSS: 500, AckBytes: 60, InitialCwnd: 4, MaxCwnd: 20, SSThresh: 10, DupThresh: 5,
		RTOMin: 100 * Millisecond, RTOInit: 2 * Second, RTOMax: 30 * Second,
	}
	rtoMax := paperTCP
	rtoMax.RTOMax = 10 * Second
	ptr := func(c transport.TCPConfig) *transport.TCPConfig { return &c }
	for _, c := range []struct {
		name    string
		traffic TrafficSpec
		want    network.FlowSpec
	}{
		{"FTP zero", FTP{}, network.FlowSpec{Kind: network.FTP}},
		{"FTP set", FTP{TCP: setTCP}, network.FlowSpec{Kind: network.FTP, TCP: ptr(setTCPConfig)}},
		{"FTP one field", FTP{TCP: TCPParams{RTOMax: 10 * Second}},
			network.FlowSpec{Kind: network.FTP, TCP: ptr(rtoMax)}},
		{"Web zero", Web{}, network.FlowSpec{Kind: network.Web,
			Web: &traffic.WebConfig{MeanTransferBytes: 80e3, ParetoShape: 1.5, OffMean: Second}}},
		{"Web set", Web{MeanTransferBytes: 20e3, ParetoShape: 2.5, MeanOffTime: 3 * Second, TCP: setTCP},
			network.FlowSpec{Kind: network.Web, TCP: ptr(setTCPConfig),
				Web: &traffic.WebConfig{MeanTransferBytes: 20e3, ParetoShape: 2.5, OffMean: 3 * Second}}},
		{"VoIP zero", VoIP{}, network.FlowSpec{Kind: network.VoIPTraffic,
			VoIP: &transport.VoIPConfig{BitsPerSecond: 96e3, PacketInterval: 20 * Millisecond,
				OnMean: 1500 * Millisecond, OffMean: 1500 * Millisecond, DelayBudget: 52 * Millisecond}}},
		{"VoIP set", VoIP{BitrateKbps: 64, PacketInterval: 10 * Millisecond, MeanOnTime: Second,
			MeanOffTime: 2 * Second, DelayBudget: 100 * Millisecond},
			network.FlowSpec{Kind: network.VoIPTraffic,
				VoIP: &transport.VoIPConfig{BitsPerSecond: 64e3, PacketInterval: 10 * Millisecond,
					OnMean: Second, OffMean: 2 * Second, DelayBudget: 100 * Millisecond}}},
		{"CBR zero", CBR{}, network.FlowSpec{Kind: network.CBRTraffic}},
		{"CBR set", CBR{Interval: 5 * Millisecond, PacketSize: 200},
			network.FlowSpec{Kind: network.CBRTraffic, CBRInterval: 5 * Millisecond, CBRPacketBytes: 200}},
	} {
		s := validScenario()
		s.Flows[0].Traffic = c.traffic
		cfg, err := s.toConfig()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		c.want.ID, c.want.Path = 1, cfg.Flows[0].Path
		got, _ := json.Marshal(cfg.Flows[0])
		want, _ := json.Marshal(c.want)
		if string(got) != string(want) {
			t.Errorf("%s: FlowSpec\n got %s\nwant %s", c.name, got, want)
		}
	}
}
