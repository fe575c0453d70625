// Package network assembles a complete simulation run: topology positions,
// the radio medium, one forwarding-scheme agent per station, transports and
// traffic generators per flow, and result collection. It is the layer the
// experiment harness and the public API drive.
package network

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"sync"

	"ripple/internal/core"
	"ripple/internal/fault"
	"ripple/internal/forward"
	"ripple/internal/phys"
	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
	"ripple/internal/traffic"
	"ripple/internal/transport"
)

// SchemeKind selects the forwarding scheme for a run, using the labels of
// the paper's figures.
type SchemeKind int

const (
	// DCF is predetermined routing over plain IEEE 802.11 ("D"; with a
	// direct route it is SPR, "S"): AFR at aggregation limit 1.
	DCF SchemeKind = iota + 1
	// AFR is predetermined routing with packet aggregation ("A").
	AFR
	// PreExOR is the early ExOR with sequential per-forwarder ACKs.
	PreExOR
	// MCExOR is the compressed-acknowledgement opportunistic scheme.
	MCExOR
	// Ripple is RIPPLE with two-way aggregation ("R16").
	Ripple
	// RippleNoAgg is RIPPLE with aggregation disabled ("R1"): Ripple at
	// aggregation limit 1.
	RippleNoAgg
)

// String returns the paper's label for the scheme.
func (k SchemeKind) String() string {
	switch k {
	case DCF:
		return "DCF"
	case AFR:
		return "AFR"
	case PreExOR:
		return "preExOR"
	case MCExOR:
		return "MCExOR"
	case Ripple:
		return "RIPPLE"
	case RippleNoAgg:
		return "RIPPLE-noagg"
	default:
		return fmt.Sprintf("SchemeKind(%d)", int(k))
	}
}

// TrafficKind selects a flow's workload.
type TrafficKind int

const (
	// FTP is a long-lived, persistently backlogged TCP transfer.
	FTP TrafficKind = iota + 1
	// Web is the ON/OFF Pareto short-transfer TCP workload.
	Web
	// VoIPTraffic is the 96 kbps on-off voice stream.
	VoIPTraffic
	// CBRTraffic is a saturated constant-bit-rate datagram stream.
	CBRTraffic
)

// FlowSpec describes one flow of a scenario.
type FlowSpec struct {
	ID    int
	Path  routing.Path // source..destination; also the forwarder list
	Kind  TrafficKind
	Start sim.Time
	// CBRInterval overrides the CBR emission interval (0 = saturating).
	CBRInterval sim.Time
	// CBRPacketBytes overrides the CBR payload size (0 = Phy.PacketBytes).
	CBRPacketBytes int
	// TCP, VoIP and Web set this flow's traffic model. Each config's zero
	// fields select the paper's values, filled by its own Normalize, so a
	// config sets only what it changes; nil is the zero config.
	TCP  *transport.TCPConfig
	VoIP *transport.VoIPConfig
	Web  *traffic.WebConfig
	// DstMaxAgg, when set, is the aggregation limit of the flow's
	// destination station, for everything that station sends (the
	// two-way-aggregation ablation sets it to 1, so TCP ACKs travel one per
	// frame); 0 leaves the station at RippleOpts.MaxAgg. Where flows that
	// end at one station set different values, the smallest wins. A relay
	// prices a frame by its own limit, so the limit is a station's, not a
	// stream's. The DCF and RippleNoAgg kinds hold every station at 1.
	DstMaxAgg int
}

// Config is a complete scenario description.
type Config struct {
	Positions     []radio.Pos
	Radio         radio.Config
	Phy           phys.Params
	Scheme        SchemeKind
	MaxForwarders int // cap on forwarder-list length (paper default 5)
	Flows         []FlowSpec
	Duration      sim.Time
	Seed          uint64
	// RippleOpts tunes RIPPLE (see core.Options; the zero value is the
	// paper's). Its MaxAgg is every scheme's per-frame packet limit: AFR's
	// as well as RIPPLE's, 16 when zero, and 1 under the DCF and
	// RippleNoAgg kinds.
	RippleOpts core.Options
	// Routing selects the route policy (see RoutingSpec). The zero value
	// keeps declared flow paths untouched.
	Routing RoutingSpec
	// Mobility makes the world time-varying (see MobilitySpec). The zero
	// value keeps every station parked at its declared position.
	Mobility MobilitySpec
	// Faults injects deterministic failures — station churn, link flaps,
	// noise bursts, an area partition (see fault.Spec). The zero value
	// injects nothing and leaves a run bit-identical to a fault-free one;
	// schedules draw from FaultSpec.Seed, never Config.Seed.
	Faults fault.Spec
	// MultiRate enables the paper's §V future-work extension: each
	// transmitter picks a per-link PHY rate with phys.OracleRate.
	MultiRate bool
	// RTSThreshold enables 802.11 RTS/CTS for the predetermined schemes
	// (DCF/AFR): data frames with MAC payload of at least this many bytes
	// are protected by an RTS/CTS handshake. 0 disables the option.
	RTSThreshold int
	// Trace, when non-nil, receives low-level medium events with their
	// simulation time (tests, debugging, trace.Recorder). When tracing a
	// multi-seed run, install it on a single-seed Run: seeds execute
	// concurrently and the hook is not synchronised. The frame is valid only
	// during the call (see radio.Medium.Trace). Not part of a Config's
	// canonical JSON form (campaign.Plan.Fingerprint): a func has none.
	Trace func(at sim.Time, event string, node pkt.NodeID, f *pkt.Frame) `json:"-"`
	// World, when non-nil, is the prebuilt seed-independent snapshot this
	// run executes on (see BuildWorld). It must have been built from a
	// Config whose non-seed fields equal this one's; the campaign engine
	// sets it automatically so all seed-runs of a cell share one snapshot. Nil makes Run build a private snapshot — the
	// results are bit-identical either way.
	World *World
	// Audit enables the deep invariant-audit plane (internal/audit): the
	// full catalogue — queue custody, queue bounds, crashed-station
	// custody, event-time monotonicity — is re-validated after every
	// engine event, panicking with a structured report on the first
	// violation. Expensive; meant for debugging and CI sweeps. The
	// RIPPLE_AUDIT environment variable (any non-empty value) enables it
	// process-wide without touching configs. The cheap conservation checks
	// (packet-pool accounting at drain) run regardless.
	Audit bool
}

// auditEnv reports whether RIPPLE_AUDIT enables deep auditing process-wide.
var auditEnv = sync.OnceValue(func() bool {
	return os.Getenv("RIPPLE_AUDIT") != ""
})

// RoutePolicyKind selects a built-in route policy.
type RoutePolicyKind int

const (
	// RouteStatic uses each flow's declared Path as given, never
	// recomputed — the pre-policy behaviour, and the default.
	RouteStatic RoutePolicyKind = iota
	// RouteETX recomputes minimum-ETX routes from the flow endpoints at
	// run start (De Couto et al.; what ExOR/MORE use).
	RouteETX
	// RouteCongestion is the ORCD-style congestion-diversity policy
	// (Bhorkar et al.): link ETX plus Alpha per queued packet at the relay,
	// recomputed every Epoch from live queue depths.
	RouteCongestion
	// RouteGeo is greedy geographic-progress forwarding (Li et al.) with
	// minimum-ETX void recovery; station positions come from the link plan,
	// so under mobility each epoch world rebuilds it over fresh geometry.
	RouteGeo
)

// String names the kind for sweep labels.
func (k RoutePolicyKind) String() string {
	switch k {
	case RouteStatic:
		return "static"
	case RouteETX:
		return "etx"
	case RouteCongestion:
		return "congestion"
	case RouteGeo:
		return "geo"
	default:
		return fmt.Sprintf("RoutePolicyKind(%d)", int(k))
	}
}

// routeSamplesPerEpoch is how many queue-depth samples feed each epoch's
// congestion measure; the mean over the epoch stands in for ORCD's
// time-averaged backlog.
const routeSamplesPerEpoch = 16

// RoutingSpec selects the route policy of a run. The zero value is
// RouteStatic: flows keep their declared paths and nothing is recomputed,
// preserving pre-policy behaviour bit for bit.
type RoutingSpec struct {
	Kind RoutePolicyKind
	// Alpha is the congestion-diversity backlog weight in ETX units per
	// queued packet (0 selects routing.DefaultCongestionAlpha).
	Alpha float64
	// Epoch is the recompute interval for dynamic policies (0 selects
	// fault.DefaultEpoch: long enough for queues to reflect sustained load,
	// short enough to re-route several times within the paper's 10 s runs).
	Epoch sim.Time
	// K, when positive, forces every route to carry exactly min(K,
	// available) intermediate relays — truncating by Rule, padding with
	// off-route ETX-progress stations. 0 leaves routes unsized. With
	// RouteStatic the declared paths are sized in place, without
	// recomputation.
	K int
	// Rule orders relays when K truncates (default routing.SizeSpaced).
	Rule routing.SizingRule
}

// check passes the first field out of range to bad — its name, its value
// and the rule it breaks — and returns bad's error, or nil.
func (s RoutingSpec) check(bad func(field string, value any, rule string) error) error {
	const rule = "must not be negative"
	switch {
	case s.Kind < RouteStatic || s.Kind > RouteGeo:
		return bad("Kind", s.Kind, "unknown route policy kind")
	case !(s.Alpha >= 0):
		return bad("Alpha", s.Alpha, rule)
	case s.Epoch < 0:
		return bad("Epoch", s.Epoch, rule)
	case s.K < 0:
		return bad("K", s.K, rule)
	}
	return nil
}

// active reports whether the spec changes routing at all.
func (s RoutingSpec) active() bool {
	return s.Kind != RouteStatic || s.K > 0
}

// build resolves the spec into a routing.Policy over the run's link table
// and station positions (the positions feed geographic forwarding; other
// kinds ignore them).
func (s RoutingSpec) build(t *routing.Table, pos []radio.Pos) (routing.Policy, error) {
	var pol routing.Policy
	switch s.Kind {
	case RouteStatic:
		// Static means "declared paths, never recomputed" — Run sizes
		// those in place without a policy; resolving one here would
		// silently break that contract.
		return nil, fmt.Errorf("network: RouteStatic does not resolve to a policy")
	case RouteETX:
		pol = routing.NewETXPolicy(t)
	case RouteCongestion:
		pol = routing.NewCongestionPolicy(t, s.Alpha)
	case RouteGeo:
		pol = routing.NewGeoPolicy(t, pos)
	default:
		return nil, fmt.Errorf("network: unknown route policy kind %d", int(s.Kind))
	}
	if s.K > 0 {
		pol = routing.Sized(pol, t, s.K, s.Rule)
	}
	return pol, nil
}

// Normalize fills zero-valued fields with paper defaults. Radio and Phy are
// defaulted whole, and only when no field of theirs is set: a partial one is
// kept as it is, for Validate to refuse.
func (c *Config) Normalize() {
	if c.MaxForwarders == 0 {
		c.MaxForwarders = 5
	}
	if c.Duration == 0 {
		c.Duration = 10 * sim.Second
	}
	c.RippleOpts.Normalize()
	if c.Phy == (phys.Params{}) {
		c.Phy = phys.Default()
	}
	if c.Radio == (radio.Config{}) {
		c.Radio = radio.DefaultConfig()
	}
}

// aggLimit is station id's per-frame packet limit in the normalised c: 1
// under the DCF and RippleNoAgg kinds, else the smallest DstMaxAgg set by a
// flow ending at id, else RippleOpts.MaxAgg.
func (c *Config) aggLimit(id pkt.NodeID) int {
	if c.Scheme == DCF || c.Scheme == RippleNoAgg {
		return 1
	}
	limit := 0
	for i := range c.Flows {
		if f := &c.Flows[i]; f.DstMaxAgg > 0 && f.Path.Dst() == id && (limit == 0 || f.DstMaxAgg < limit) {
			limit = f.DstMaxAgg
		}
	}
	return cmp.Or(limit, c.RippleOpts.MaxAgg)
}

// FlowResult summarises one flow after a run.
type FlowResult struct {
	ID             int
	Kind           TrafficKind
	ThroughputMbps float64
	MeanDelay      sim.Time
	ReorderRate    float64
	PktsDelivered  int64
	Transfers      int64
	MoS            float64 // VoIP flows only
	LossRate       float64 // VoIP flows only
	// Unreachable counts packets this flow dropped at the source because
	// its destination was cut off by faults (always 0 without fault
	// injection).
	Unreachable int64
}

// Result is a completed run. A Result produced by Average carries the
// per-seed mean of every field (integer counters rounded to the nearest
// integer); one produced by Run carries that single run's exact counts.
type Result struct {
	Flows     []FlowResult
	TotalMbps float64
	Medium    radio.Counters
	MAC       forward.Counters
	// Events is the number of logical simulation events processed and
	// PendingAtEnd the number still queued when the clock ran out (0 means
	// the network went fully quiescent, which for backlogged traffic
	// indicates a stall). Logical: every reception begin and end counts as
	// one, although a transmission's whole fan-out sits behind two heap
	// entries (sim.Series).
	Events       uint64
	PendingAtEnd int
	Duration     sim.Time
	// Fairness is Jain's index over the per-flow throughputs.
	Fairness float64
	// RouteStale counts epoch boundaries at which a flow kept a stale
	// route because its dynamic recompute failed (motion disconnected the
	// endpoints); Unreachable counts packets dropped because the
	// destination was cut off by faults (mirrors MAC.Unreachable). Both
	// are 0 for static fault-free runs.
	RouteStale  uint64
	Unreachable uint64
	// PoolInUse is the packet pool's outstanding count at end of run —
	// packets legitimately parked in interface queues plus anything
	// leaked. Bounded by total queue capacity in a healthy run; station
	// crashes must release custody rather than inflate it.
	PoolInUse int
}

// ConfigError is the one error Validate returns: a field of the Config
// that breaks a rule.
type ConfigError struct {
	// Field is the field's path in the Config's JSON form: "Faults.MTTR",
	// "Flows[2].Path".
	Field string
	// Value is what the field holds (for the waypoint speed rule, which
	// spans two fields, both).
	Value any
	// Rule is what the value breaks, as the message states it: "must not
	// be negative (got -2s)", "duplicate flow id 5".
	Rule string
}

func (e *ConfigError) Error() string { return "network: " + e.Field + ": " + e.Rule }

// at is where a struct sits in the Config's JSON form: the index of the
// flow it belongs to (-1 for none) and its path below that. Its bad method
// is the report func the struct's Check method takes.
type at struct {
	flow int
	path string
}

// bad is the ConfigError on field below a, stating the rule with the value.
func (a at) bad(field string, value any, rule string) error {
	return a.error(field, value, fmt.Sprintf("%s (got %v)", rule, value))
}

// error is the ConfigError on field below a, with the rule as given.
func (a at) error(field string, value any, rule string) *ConfigError {
	field = a.path + field
	if a.flow >= 0 {
		field = fmt.Sprintf("Flows[%d].%s", a.flow, field)
	}
	return &ConfigError{Field: field, Value: value, Rule: rule}
}

// checkPositions is radio.CheckPositions' refusal as the ConfigError on the
// station's element of Positions. It allocates nothing on positions it
// accepts: Validate runs once per cell at plan time and again per run.
func checkPositions(positions []radio.Pos) error {
	err := radio.CheckPositions(positions)
	if err == nil {
		return nil
	}
	pe := err.(*radio.PositionError) // its one error type
	return at{flow: -1}.bad(fmt.Sprintf("Positions[%d]", pe.Station), pe.Pos, pe.Rule)
}

// Validate reports the first thing that makes cfg unrunnable, as a
// *ConfigError. Structure: no stations, a station CheckPositions refuses, no
// flows, an unknown scheme, mobility kind, route policy kind or traffic
// kind, or a flow whose path is too short, repeats a station or leaves the
// topology, or whose ID is taken or, for Web and VoIP traffic, negative.
// Range, through each struct's own rules: a negative Duration,
// MaxForwarders or RTSThreshold, and a field of RippleOpts
// (core.Options.Check), Radio (radio.Config.Check), Routing, Mobility,
// Faults (fault.Spec.Check) or a flow (its Start, CBR fields, DstMaxAgg
// and set TCP, VoIP or Web config) out of range. It judges cfg as Run runs
// it, with Normalize's defaults, so it refuses exactly what Run would. It
// is the one gate: Run and BuildWorld return its error before building
// anything, and campaign.Grid.Plan and campaign.NewPlan before any run.
// What it leaves to the public API is which options a kind ignores
// (ripple.Scenario.Validate).
func Validate(cfg *Config) error {
	c := *cfg
	c.Normalize()
	return c.check()
}

// check is Validate on a normalised config.
func (cfg *Config) check() error {
	top := at{flow: -1}
	if len(cfg.Positions) == 0 {
		return top.error("Positions", cfg.Positions, "no station positions")
	}
	if err := checkPositions(cfg.Positions); err != nil {
		return err
	}
	if len(cfg.Flows) == 0 {
		return top.error("Flows", cfg.Flows, "no flows")
	}
	const rule = "must not be negative"
	switch {
	case cfg.Scheme < DCF || cfg.Scheme > RippleNoAgg:
		return top.bad("Scheme", cfg.Scheme, "unknown scheme")
	case cfg.Duration < 0:
		return top.bad("Duration", cfg.Duration, rule)
	case cfg.MaxForwarders < 0:
		return top.bad("MaxForwarders", cfg.MaxForwarders, rule)
	case cfg.RTSThreshold < 0:
		return top.bad("RTSThreshold", cfg.RTSThreshold, rule)
	case cfg.Phy.SIFS == 0:
		// Normalize defaults only a Phy with no field set.
		return top.bad("Phy.SIFS", cfg.Phy.SIFS, "must be set beside the other Phy fields")
	}
	if err := cmp.Or(
		cfg.RippleOpts.Check(at{-1, "RippleOpts."}.bad),
		cfg.Radio.Check(at{-1, "Radio."}.bad),
		cfg.Routing.check(at{-1, "Routing."}.bad),
		cfg.Mobility.check(at{-1, "Mobility."}.bad),
		cfg.Faults.Check(at{-1, "Faults."}.bad),
	); err != nil {
		return err
	}
	for i := range cfg.Flows {
		if err := cfg.Flows[i].check(i, cfg.Flows[:i], len(cfg.Positions)); err != nil {
			return err
		}
	}
	return nil
}

// check applies a flow's rules; i is its index in Config.Flows, earlier
// the flows before it and stations the topology's size.
func (f *FlowSpec) check(i int, earlier []FlowSpec, stations int) error {
	flow := at{flow: i}
	if err := f.Path.Validate(); err != nil {
		return flow.error("Path", f.Path, err.Error())
	}
	for _, n := range f.Path {
		if int(n) < 0 || int(n) >= stations {
			return flow.error("Path", f.Path, fmt.Sprintf("station %d outside topology (%d stations)", n, stations))
		}
	}
	if j := slices.IndexFunc(earlier, func(e FlowSpec) bool { return e.ID == f.ID }); j >= 0 {
		return flow.error("ID", f.ID, fmt.Sprintf("duplicate flow id %d, also Flows[%d]'s", f.ID, j))
	}
	bad := flow.bad
	const rule = "must not be negative"
	switch {
	case f.Kind < FTP || f.Kind > CBRTraffic:
		return bad("Kind", f.Kind, "unknown traffic kind")
	case f.ID < 0 && (f.Kind == Web || f.Kind == VoIPTraffic):
		// The ID numbers the flow's traffic stream; a negative one would
		// wrap into the stations' streams.
		return bad("ID", f.ID, "a Web or VoIP flow's ID seeds its traffic stream and must not be negative")
	case f.Start < 0:
		return bad("Start", f.Start, rule)
	case f.CBRInterval < 0:
		return bad("CBRInterval", f.CBRInterval, rule)
	case f.CBRPacketBytes < 0:
		return bad("CBRPacketBytes", f.CBRPacketBytes, rule)
	case f.DstMaxAgg < 0:
		return bad("DstMaxAgg", f.DstMaxAgg, rule)
	}
	var err error
	if f.TCP != nil {
		err = f.TCP.Check(at{i, "TCP."}.bad)
	}
	if f.VoIP != nil && err == nil {
		err = f.VoIP.Check(at{i, "VoIP."}.bad)
	}
	if f.Web != nil && err == nil {
		err = f.Web.Check(at{i, "Web."}.bad)
	}
	return err
}
