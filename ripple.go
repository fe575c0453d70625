// Package ripple is the public API of the RIPPLE reproduction: a
// discrete-event IEEE 802.11 wireless network simulator with the RIPPLE
// opportunistic forwarding scheme (Li, Leith, Qiu — ICDCS 2010) and the
// schemes it is evaluated against (DCF/SPR predetermined routing, AFR
// aggregation, preExOR, MCExOR).
//
// A minimal run:
//
//	top, _ := ripple.LineTopology(3)
//	net, _ := ripple.NewNet(top, ripple.DefaultRadio())
//	sc := net.Scenario(ripple.SchemeRIPPLE, net.FlowTo(0, 3, ripple.FTP{}))
//	sc.Duration = 10 * ripple.Second
//	sc.Seeds = []uint64{1, 2, 3}
//	res, err := ripple.Run(sc)
//
// Results report per-flow goodput, delay, reordering and (for VoIP) MoS;
// every metric is a Metric carrying the seed mean with a 95% confidence
// half-width, min, max and sample count.
package ripple

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ripple/internal/core"
	"ripple/internal/network"
	"ripple/internal/phys"
	"ripple/internal/routing"
	"ripple/internal/sim"
)

// Time re-exports the simulator's nanosecond time unit.
type Time = sim.Time

// Convenient duration units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// NodeID identifies a station.
type NodeID = int

// Path is a node sequence from a flow's source to its destination; for
// opportunistic schemes it doubles as the prioritised forwarder list.
type Path = []NodeID

// Scheme selects the forwarding scheme, using the paper's labels.
type Scheme int

// The available schemes, one for each of the simulator's.
const (
	// SchemeDCF is predetermined routing over plain IEEE 802.11 DCF ("D";
	// with a direct source→destination path it is SPR, "S").
	SchemeDCF = Scheme(network.DCF)
	// SchemeAFR aggregates up to 16 packets per frame on a predetermined
	// route with partial retransmission ("A").
	SchemeAFR = Scheme(network.AFR)
	// SchemePreExOR is the early ExOR with sequential per-forwarder ACKs.
	SchemePreExOR = Scheme(network.PreExOR)
	// SchemeMCExOR is the compressed-ACK opportunistic scheme.
	SchemeMCExOR = Scheme(network.MCExOR)
	// SchemeRIPPLE is the paper's contribution: mTXOP forwarding with
	// two-way aggregation ("R16").
	SchemeRIPPLE = Scheme(network.Ripple)
	// SchemeRIPPLENoAgg is RIPPLE with aggregation disabled ("R1").
	SchemeRIPPLENoAgg = Scheme(network.RippleNoAgg)
)

// Topology is a set of station positions in metres.
type Topology struct {
	Name      string
	Positions []Position
}

// Position is a station location in metres.
type Position struct{ X, Y float64 }

// Flow describes one traffic flow. Declare flows either explicitly — a
// Path from a topology constructor plus a TrafficSpec — or by endpoints
// with Net.FlowTo, which computes the forwarder list.
type Flow struct {
	// ID labels the flow in results. Zero is auto-assigned the smallest
	// unused positive integer in declaration order (explicit IDs are
	// never reused). A Web or VoIP flow's ID also seeds its traffic
	// stream, and Run refuses a negative one.
	ID int
	// Path runs source..destination; for opportunistic schemes it doubles
	// as the prioritised forwarder list.
	Path Path
	// Traffic is the flow's workload model: FTP, Web, VoIP or CBR.
	Traffic TrafficSpec
	// Start delays the flow's first packet.
	Start Time

	// err carries a deferred Net.FlowTo route-discovery failure.
	err error
}

// Scenario is a complete experiment description. Zero values select the
// paper's defaults (216 Mbps PHY, default radio with BER 1e-6, 10 s
// duration, seed 1).
type Scenario struct {
	Topology Topology
	Scheme   Scheme
	Flows    []Flow
	Duration Time
	// Seeds runs the scenario once per seed (concurrently) and averages.
	Seeds []uint64
	// Radio selects the propagation environment and PHY rate setting; the
	// zero value is DefaultRadio().
	Radio Radio
	// Routing selects the route policy; the zero value is StaticRouting()
	// (declared flow paths, used as given). See ETXRouting,
	// CongestionRouting, GeoRouting and the WithForwarders sizing option.
	Routing Routing
	// Mobility makes stations move during the run; the zero value is
	// StaticMobility() (no motion). See WaypointMobility and
	// MarkovMobility.
	Mobility Mobility
	// Faults injects deterministic failures — station churn, link flaps,
	// noise bursts, an area partition; the zero value is NoFaults(). See
	// StationChurn, LinkFlaps, NoiseBursts.
	Faults Faults
	// MaxForwarders caps forwarder lists (default 5, paper Remark 4).
	MaxForwarders int
	// MaxAggregation caps packets per frame for RIPPLE and AFR
	// (default 16). SchemeDCF and SchemeRIPPLENoAgg are AFR and RIPPLE
	// at 1, whatever it says.
	MaxAggregation int
	// MultiRate enables the paper's §V future-work extension: per-link
	// PHY rate selection over the 802.11a ladder (6 Mbps base) or its ×4
	// wideband scaling (216 Mbps base).
	MultiRate bool
	// RTSThreshold enables 802.11 RTS/CTS for the predetermined schemes
	// (DCF/AFR): data frames with at least this many MAC payload bytes are
	// protected by an RTS/CTS handshake. 0 disables the option.
	RTSThreshold int
	// TraceJSONL, when non-nil, receives one JSON object per medium event
	// (transmissions, receptions, corruptions) from the first seed's run,
	// and enables airtime accounting in the Result.
	TraceJSONL io.Writer
	// Audit enables the deep invariant-audit plane for every run of the
	// scenario: conservation invariants (queue custody, queue bounds,
	// crashed-station custody, event-time monotonicity) are re-validated
	// after every engine event and violations panic with a structured
	// report. Expensive — meant for debugging and CI, not sweeps. The
	// RIPPLE_AUDIT environment variable enables the same checks
	// process-wide.
	Audit bool
}

// FlowResult summarises one flow of a run. Every field is aggregated over
// the scenario's seeds.
type FlowResult struct {
	ID int
	// Throughput is the flow's goodput in Mbps.
	Throughput Metric
	// Delay is the mean one-way packet delay in milliseconds.
	Delay Metric
	// Reorder is the fraction of packets delivered out of order.
	Reorder Metric
	// Delivered counts packets delivered to the destination.
	Delivered Metric
	// Transfers counts completed transfers (Web workload).
	Transfers Metric
	// MoS is the Mean Opinion Score (VoIP only).
	MoS Metric
	// Loss is the fraction of packets lost or over delay budget (VoIP
	// only).
	Loss Metric
	// Unreachable counts packets dropped at the source because the flow's
	// destination was cut off by faults (0 without fault injection).
	Unreachable Metric
}

// Result summarises a scenario, aggregated over its seeds.
type Result struct {
	Flows []FlowResult
	// Total is the summed flow throughput in Mbps.
	Total Metric
	// Fairness is Jain's index over per-flow throughputs (1 = equal).
	Fairness Metric
	// Events counts logical simulation events processed per run (every
	// timer, transmission end and reception begin/end, however the engine
	// queues them).
	Events Metric
	// RouteStale counts epoch boundaries at which a flow kept a stale
	// route because its recompute failed; Unreachable counts packets
	// dropped because faults cut off their destination. Both are 0 for
	// static fault-free scenarios.
	RouteStale  Metric
	Unreachable Metric
	// AirtimePerNode and BusyFraction are populated when the scenario set
	// TraceJSONL (measured on the first seed's run).
	AirtimePerNode map[NodeID]Time
	BusyFraction   float64
}

// Run executes a scenario and returns seed-aggregated results. Seeds run
// as independent units on the shared bounded worker pool (see RunBatch).
func Run(s Scenario) (*Result, error) {
	res, err := RunBatch(Campaign{Scenarios: []Scenario{s}})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// Compare runs the same scenario under several schemes — in parallel, as
// one campaign on the shared pool — and returns each scheme's full Result
// keyed by its paper label, so delay, fairness and confidence intervals
// are available without re-running. TraceJSONL is rejected: the schemes'
// traces would interleave on one writer; trace each scheme with its own
// Run.
func Compare(s Scenario, schemes ...Scheme) (map[string]*Result, error) {
	if s.TraceJSONL != nil {
		return nil, fmt.Errorf("ripple: Compare cannot trace (schemes run in parallel); use Run per scheme with separate writers")
	}
	scenarios := make([]Scenario, len(schemes))
	for i, k := range schemes {
		sc := s
		sc.Scheme = k
		scenarios[i] = sc
	}
	results, err := RunBatch(Campaign{Scenarios: scenarios})
	if err != nil {
		return nil, err
	}
	out := make(map[string]*Result, len(schemes))
	for i, k := range schemes {
		out[k.String()] = results[i]
	}
	return out, nil
}

// String returns the paper's label for the scheme.
func (k Scheme) String() string { return kindOf(k).String() }

// kindOf is the simulator's scheme k names, or 0 when k is none of the
// constants.
func kindOf(k Scheme) network.SchemeKind {
	if k < SchemeDCF || k > SchemeRIPPLENoAgg {
		return 0
	}
	return network.SchemeKind(k)
}

// Validate reports what would make the scenario fail before its first
// event. It adds to the simulator's own validator (network.Validate, which
// every Config meets: structure and every range, such as a negative
// Duration or Flow.Start, a bit error rate outside [0, 1) or a Markov stay
// of 1) only what the public builders alone know: an unknown scheme, a flow
// without a route or a traffic model, and any Routing, Mobility or Faults
// option that the selected policy, model or fault set would silently
// ignore. A range error names the option by its builder, as in
// "Faults.WithThreshold" rather than "Faults.FailureThreshold". Run,
// RunBatch and Distribute return the same error, before any run starts.
func (s Scenario) Validate() error {
	_, err := s.toConfig()
	return err
}

// builderNames names each range-checked network.Config field, by its path
// (a flow's with its index left out), after the public option that sets it.
var builderNames = map[string]string{
	"Duration":                    "Scenario.Duration",
	"MaxForwarders":               "Scenario.MaxForwarders",
	"RippleOpts.MaxAgg":           "Scenario.MaxAggregation",
	"RTSThreshold":                "Scenario.RTSThreshold",
	"Radio.BitErrorRate":          "Radio.WithBER bit error rate",
	"Radio.PruneSigma":            "Radio.WithPruneSigma prune sigma",
	"Routing.Alpha":               "Routing.WithAlpha",
	"Routing.Epoch":               "Routing.WithEpoch",
	"Routing.K":                   "Routing.WithForwarders",
	"Mobility.Epoch":              "Mobility.WithEpoch",
	"Mobility.MinSpeed":           "Mobility.WithSpeed",
	"Mobility.MaxSpeed":           "Mobility.WithSpeed",
	"Mobility.Pause":              "Mobility.WithPause",
	"Mobility.Places":             "Mobility.WithPlaces",
	"Mobility.Stay":               "Mobility.WithStay",
	"Faults.Epoch":                "Faults.WithEpoch",
	"Faults.MTBF":                 "Faults MTBF",
	"Faults.MTTR":                 "Faults MTTR",
	"Faults.FlapLinks":            "Faults.WithLinkFlaps",
	"Faults.FlapUp":               "Faults.WithFlapTimes up",
	"Faults.FlapDown":             "Faults.WithFlapTimes down",
	"Faults.NoiseBursts":          "Faults.WithNoiseBursts",
	"Faults.NoisePenaltyDB":       "Faults.WithNoisePenalty penalty",
	"Faults.NoiseRadius":          "Faults.WithNoisePenalty radius",
	"Faults.PartitionAt":          "Faults.WithPartition at",
	"Faults.PartitionDur":         "Faults.WithPartition duration",
	"Faults.FailureThreshold":     "Faults.WithThreshold",
	"Flows.Start":                 "Flow.Start",
	"Flows.CBRInterval":           "CBR interval",
	"Flows.CBRPacketBytes":        "CBR packet size",
	"Flows.TCP.MSS":               "TCP parameter MSS",
	"Flows.TCP.AckBytes":          "TCP parameter AckBytes",
	"Flows.TCP.InitialCwnd":       "TCP parameter InitialCwnd",
	"Flows.TCP.MaxCwnd":           "TCP parameter MaxCwnd",
	"Flows.TCP.SSThresh":          "TCP parameter SSThresh",
	"Flows.TCP.DupThresh":         "TCP parameter DupThresh",
	"Flows.TCP.RTOMin":            "TCP parameter RTOMin",
	"Flows.TCP.RTOInit":           "TCP parameter RTOInit",
	"Flows.TCP.RTOMax":            "TCP parameter RTOMax",
	"Flows.Web.MeanTransferBytes": "web parameter MeanTransferBytes",
	"Flows.Web.ParetoShape":       "web Pareto shape",
	"Flows.Web.OffMean":           "web parameter MeanOffTime",
	"Flows.VoIP.BitsPerSecond":    "VoIP parameter BitrateKbps, in bit/s,",
	"Flows.VoIP.PacketInterval":   "VoIP parameter PacketInterval",
	"Flows.VoIP.OnMean":           "VoIP parameter MeanOnTime",
	"Flows.VoIP.OffMean":          "VoIP parameter MeanOffTime",
	"Flows.VoIP.DelayBudget":      "VoIP parameter DelayBudget",
}

// publicError restates a network.ConfigError on a field builderNames
// knows in the public option's name, after the flow's ID for a flow's
// field; any other error it returns as it is.
func publicError(err error, cfg *network.Config) error {
	var ce *network.ConfigError
	if !errors.As(err, &ce) {
		return err
	}
	field, flow := ce.Field, ""
	if rest, ok := strings.CutPrefix(field, "Flows["); ok {
		i, sub, _ := strings.Cut(rest, "].")
		n, _ := strconv.Atoi(i)
		field, flow = "Flows."+sub, fmt.Sprintf("flow %d: ", cfg.Flows[n].ID)
	}
	name, ok := builderNames[field]
	if !ok {
		return err
	}
	return fmt.Errorf("ripple: %s%s %s", flow, name, ce.Rule)
}

func (s Scenario) toConfig() (*network.Config, error) {
	kind := kindOf(s.Scheme)
	if kind == 0 {
		return nil, fmt.Errorf("ripple: unknown scheme %d", int(s.Scheme))
	}
	rc, err := s.Radio.config()
	if err != nil {
		return nil, err
	}
	if err := errors.Join(s.Routing.validate(), s.Mobility.validate(), s.Faults.validate()); err != nil {
		return nil, err
	}
	if s.Mobility.Active() && s.Faults.spec.Epoch != 0 {
		return nil, fmt.Errorf("ripple: Faults.WithEpoch has no effect with a mobility model — fault overlays ride the mobility epochs; set the length with Mobility.WithEpoch")
	}
	cfg := &network.Config{
		Radio:         rc,
		Scheme:        kind,
		Duration:      s.Duration,
		MaxForwarders: s.MaxForwarders,
		Routing:       s.Routing.spec,
		Mobility:      s.Mobility.spec,
		Faults:        s.Faults.spec,
		RippleOpts:    core.Options{MaxAgg: s.MaxAggregation},
		Audit:         s.Audit,
	}
	if s.Radio.lowRate {
		cfg.Phy = phys.LowRate()
	}
	cfg.MultiRate = s.MultiRate
	cfg.RTSThreshold = s.RTSThreshold
	cfg.Positions = make([]radioPos, len(s.Topology.Positions))
	for i, p := range s.Topology.Positions {
		cfg.Positions[i] = radioPos{X: p.X, Y: p.Y}
	}
	// Auto-assigned IDs (Flow.ID zero) take the smallest unused positive
	// integers in declaration order, skipping explicitly set IDs so mixing
	// the two styles cannot manufacture a duplicate.
	taken := make(map[int]bool, len(s.Flows))
	for _, f := range s.Flows {
		if f.ID != 0 {
			taken[f.ID] = true
		}
	}
	nextID := 1
	for _, f := range s.Flows {
		id := f.ID
		if id == 0 {
			for taken[nextID] {
				nextID++
			}
			id = nextID
			taken[id] = true
		}
		if f.err != nil {
			return nil, fmt.Errorf("ripple: flow %d: %w", id, f.err)
		}
		if f.Traffic == nil {
			return nil, fmt.Errorf("ripple: flow %d: no traffic model (set Traffic to FTP{}, Web{}, VoIP{} or CBR{})", id)
		}
		path := make(routing.Path, len(f.Path))
		for j, n := range f.Path {
			path[j] = pktNode(n)
		}
		spec := network.FlowSpec{ID: id, Path: path, Start: f.Start}
		f.Traffic.applyTo(&spec)
		cfg.Flows = append(cfg.Flows, spec)
	}
	if err := network.Validate(cfg); err != nil {
		return nil, publicError(err, cfg)
	}
	return cfg, nil
}
