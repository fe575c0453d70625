// Package fault generates deterministic, seeded fault-injection
// schedules for a simulation run: station crash/recover churn with
// exponential up/down times, link flaps, transient regional noise bursts
// and an area partition. A Schedule is a pure function of
// (Spec, duration, positions, exemptions, candidate links) — exactly like
// a mobility trajectory it draws nothing from Config.Seed, so one
// Schedule serves every seed-run of a campaign cell and a distributed
// worker rebuilds it bit-identically from the scenario definition alone.
package fault

import (
	"slices"
	"sort"

	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/sim"
)

// Defaults for zero-valued Spec knobs, resolved by Build.
const (
	// DefaultMTTR is the mean repair time of a crashed station.
	DefaultMTTR = 1 * sim.Second
	// DefaultFlapUp / DefaultFlapDown are the mean up/down durations of a
	// flapping link.
	DefaultFlapUp   = 1 * sim.Second
	DefaultFlapDown = 250 * sim.Millisecond
	// DefaultNoiseEvery / DefaultNoiseLen shape a noise burst's duty
	// cycle: mean quiet gap and fixed active length.
	DefaultNoiseEvery = 1 * sim.Second
	DefaultNoiseLen   = 200 * sim.Millisecond
	// DefaultNoisePenaltyDB is the SNR penalty a burst applies to every
	// reception at a covered station.
	DefaultNoisePenaltyDB = 20.0
	// DefaultNoiseRadius is the burst coverage radius in metres.
	DefaultNoiseRadius = 250.0
	// DefaultFailureThreshold is the number of consecutive failed
	// exchanges before routing blacklists the preferred forwarder.
	DefaultFailureThreshold = 3
	// DefaultEpoch is the default epoch of a fault overlay, a mobile world
	// and a dynamic route policy's recompute (network.MobilitySpec and
	// RoutingSpec): one length, so a topology change and the re-route that
	// reacts to it land on the same boundary (the swap is scheduled first).
	DefaultEpoch = 500 * sim.Millisecond
)

// Spec describes the fault processes of a run. The zero value is
// completely inert: Active reports false, no Schedule is built, and a
// configuration carrying it behaves bit-identically to one without the
// field. Every schedule derives from Seed alone — deliberately separate
// from the scenario seed, mirroring MobilitySpec.Seed.
type Spec struct {
	// Seed drives all fault schedules (0 selects 1).
	Seed uint64
	// Epoch is the fault-overlay epoch length when the world is otherwise
	// static (0 selects the mobility default, 500 ms). When mobility is
	// active its epoch length wins — fault overlays ride the same
	// boundaries.
	Epoch sim.Time
	// MTBF enables station churn: each non-exempt station alternates
	// Exp(MTBF) up-time and Exp(MTTR) down-time. 0 disables churn.
	MTBF sim.Time
	// MTTR is the mean repair time (0 selects DefaultMTTR).
	MTTR sim.Time
	// FlapLinks picks that many links of the initial neighbor graph to
	// flap: Exp(FlapUp) usable, Exp(FlapDown) blocked, repeating.
	FlapLinks int
	// FlapUp and FlapDown are the mean link up/down durations
	// (0 selects the defaults).
	FlapUp, FlapDown sim.Time
	// NoiseBursts enables that many independent regional noise sources:
	// each picks a fixed uniform-random center, waits Exp(NoiseEvery),
	// then degrades every reception within NoiseRadius of the center by
	// NoisePenaltyDB for NoiseLen, repeating.
	NoiseBursts int
	// NoiseEvery and NoiseLen shape the burst duty cycle (0 selects the
	// defaults).
	NoiseEvery, NoiseLen sim.Time
	// NoisePenaltyDB is the per-burst SNR penalty (0 selects 20 dB).
	NoisePenaltyDB float64
	// NoiseRadius is the burst coverage radius in metres (0 selects 250).
	NoiseRadius float64
	// PartitionAt / PartitionDur, when PartitionDur > 0, block every link
	// crossing the median-x split of the topology during
	// [PartitionAt, PartitionAt+PartitionDur).
	PartitionAt, PartitionDur sim.Time
	// FailureThreshold is the number of consecutive failed exchanges
	// before the routing layer blacklists a flow's preferred forwarder
	// until the next epoch (0 selects 3).
	FailureThreshold int
}

// Active reports whether the spec injects any fault at all.
func (s Spec) Active() bool {
	return s.MTBF > 0 || s.FlapLinks > 0 || s.NoiseBursts > 0 || s.PartitionDur > 0
}

// EpochLen resolves the fault-overlay epoch length for a world without
// mobility (mobility's epoch length wins when both are active).
func (s Spec) EpochLen() sim.Time {
	if s.Epoch > 0 {
		return s.Epoch
	}
	return DefaultEpoch
}

// Threshold resolves the forwarder-blacklist failure threshold.
func (s Spec) Threshold() int {
	if s.FailureThreshold > 0 {
		return s.FailureThreshold
	}
	return DefaultFailureThreshold
}

// Check passes the first field out of range to bad — its name, its value
// and the rule it breaks — and returns bad's error, or nil: no duration,
// count, penalty or radius may be negative, nor a penalty or radius NaN (0
// selects the default).
func (s Spec) Check(bad func(field string, value any, rule string) error) error {
	const rule = "must not be negative"
	switch {
	case s.Epoch < 0:
		return bad("Epoch", s.Epoch, rule)
	case s.MTBF < 0:
		return bad("MTBF", s.MTBF, rule)
	case s.MTTR < 0:
		return bad("MTTR", s.MTTR, rule)
	case s.FlapLinks < 0:
		return bad("FlapLinks", s.FlapLinks, rule)
	case s.FlapUp < 0:
		return bad("FlapUp", s.FlapUp, rule)
	case s.FlapDown < 0:
		return bad("FlapDown", s.FlapDown, rule)
	case s.NoiseBursts < 0:
		return bad("NoiseBursts", s.NoiseBursts, rule)
	case s.NoiseEvery < 0:
		return bad("NoiseEvery", s.NoiseEvery, rule)
	case s.NoiseLen < 0:
		return bad("NoiseLen", s.NoiseLen, rule)
	case !(s.NoisePenaltyDB >= 0):
		return bad("NoisePenaltyDB", s.NoisePenaltyDB, rule)
	case !(s.NoiseRadius >= 0):
		return bad("NoiseRadius", s.NoiseRadius, rule)
	case s.PartitionAt < 0:
		return bad("PartitionAt", s.PartitionAt, rule)
	case s.PartitionDur < 0:
		return bad("PartitionDur", s.PartitionDur, rule)
	case s.FailureThreshold < 0:
		return bad("FailureThreshold", s.FailureThreshold, rule)
	}
	return nil
}

func (s Spec) seed() uint64 {
	if s.Seed != 0 {
		return s.Seed
	}
	return 1
}

func orDefault(v, def sim.Time) sim.Time {
	if v > 0 {
		return v
	}
	return def
}

// EventKind labels one in-engine fault transition.
type EventKind int

const (
	// StationDown crashes a station: its scheme releases all packet
	// custody and the medium stops delivering frames to or from it.
	StationDown EventKind = iota + 1
	// StationUp recovers a crashed station with empty MAC state.
	StationUp
	// NoiseOn / NoiseOff toggle one burst's SNR penalty over its covered
	// stations.
	NoiseOn
	NoiseOff
)

// Event is one scheduled fault transition. Station events identify the
// station; noise events identify the burst (its coverage and penalty live
// on the Schedule). Link flaps and the partition have no events: the
// medium consults the Schedule's time-indexed LinkBlocked query directly.
type Event struct {
	At      sim.Time
	Kind    EventKind
	Station pkt.NodeID
	Burst   int
}

// Burst is one regional noise source.
type Burst struct {
	Center    radio.Pos
	PenaltyDB float64
	// Covered lists the stations within the Spec's NoiseRadius of Center,
	// by the initial positions (burst regions are fixed in space; a mobile
	// station is affected per its initial-epoch location).
	Covered []pkt.NodeID
	toggles []sim.Time // even index: burst turns on; odd: off
}

// Schedule is the materialised fault timeline of one run: per-process
// toggle times plus the sorted event list. It is immutable after Build
// and safe to share across concurrent runs.
type Schedule struct {
	n               int
	threshold       int
	stationToggles  [][]sim.Time // per station: even index down, odd up
	flapToggles     [][]sim.Time // per flapped link: even index down, odd up
	flapPeers       [][]flapPeer // per station: its flapped links (nil without flaps)
	bursts          []Burst
	partAt, partEnd sim.Time
	side            []bool // partition side per station (x above median)
	events          []Event
}

// flapPeer is one flapped link seen from one of its endpoints: the other
// endpoint and the link's row in flapToggles. A station has at most a
// handful, and all but 2·FlapLinks stations have none, so the link veto is
// a slice-length check for nearly every pair and never hashes.
type flapPeer struct {
	peer pkt.NodeID
	row  int32
}

// Links is a candidate set for link flaps: Len pairs in a fixed order,
// the i-th of which is Pair(i). A flap picks pairs by their index, so two
// sets that list the same pairs in the same order give the same schedule.
type Links interface {
	Len() int
	Pair(i int) [2]pkt.NodeID
}

// PairList is a candidate set listed pair by pair.
type PairList [][2]pkt.NodeID

func (l PairList) Len() int                 { return len(l) }
func (l PairList) Pair(i int) [2]pkt.NodeID { return l[i] }

// Build is BuildOn over a listed candidate set.
func Build(spec Spec, duration sim.Time, positions []radio.Pos, exempt []bool, links [][2]pkt.NodeID) *Schedule {
	return BuildOn(spec, duration, positions, exempt, PairList(links))
}

// BuildOn materialises the schedule for a run of the given duration.
// exempt (optional, nil for none) flags stations immune to churn — the
// network layer exempts flow endpoints so degradation curves measure
// relay failures, not source/sink death. links is the candidate set for
// flaps, typically the initial plan's neighbor pairs (a < b). The result
// depends only on the arguments — never on wall clock or scenario seed.
func BuildOn(spec Spec, duration sim.Time, positions []radio.Pos, exempt []bool, links Links) *Schedule {
	s := &Schedule{n: len(positions), threshold: spec.Threshold()}
	seed := spec.seed()

	if spec.MTBF > 0 {
		mttr := orDefault(spec.MTTR, DefaultMTTR)
		s.stationToggles = make([][]sim.Time, len(positions))
		for i := range positions {
			if exempt != nil && exempt[i] {
				continue
			}
			rng := sim.NewRNG(seed, 1_000+uint64(i))
			s.stationToggles[i] = toggleTimes(rng, spec.MTBF, mttr, duration)
		}
	}

	if spec.FlapLinks > 0 && links.Len() > 0 {
		up := orDefault(spec.FlapUp, DefaultFlapUp)
		down := orDefault(spec.FlapDown, DefaultFlapDown)
		rng := sim.NewRNG(seed, 2)
		picked := pickLinks(rng, links, spec.FlapLinks)
		s.flapPeers = make([][]flapPeer, len(positions))
		s.flapToggles = make([][]sim.Time, len(picked))
		for k, l := range picked {
			s.flapPeers[l[0]] = append(s.flapPeers[l[0]], flapPeer{l[1], int32(k)})
			s.flapPeers[l[1]] = append(s.flapPeers[l[1]], flapPeer{l[0], int32(k)})
			lr := sim.NewRNG(seed, 2_000_000+uint64(k))
			s.flapToggles[k] = toggleTimes(lr, up, down, duration)
		}
	}

	if spec.NoiseBursts > 0 {
		every := orDefault(spec.NoiseEvery, DefaultNoiseEvery)
		length := orDefault(spec.NoiseLen, DefaultNoiseLen)
		pen := spec.NoisePenaltyDB
		if pen == 0 {
			pen = DefaultNoisePenaltyDB
		}
		radius := spec.NoiseRadius
		if radius == 0 {
			radius = DefaultNoiseRadius
		}
		minX, minY, maxX, maxY := bounds(positions)
		for k := 0; k < spec.NoiseBursts; k++ {
			rng := sim.NewRNG(seed, 3_000_000+uint64(k))
			b := Burst{
				Center: radio.Pos{
					X: minX + float64(rng.Float64()*(maxX-minX)),
					Y: minY + float64(rng.Float64()*(maxY-minY)),
				},
				PenaltyDB: pen,
			}
			for i, p := range positions {
				if radio.Dist(p, b.Center) <= radius {
					b.Covered = append(b.Covered, pkt.NodeID(i))
				}
			}
			// Alternating quiet gap / fixed active window.
			t := sim.Time(0)
			for {
				t += sim.Time(rng.Exp(float64(every)))
				if t >= duration {
					break
				}
				b.toggles = append(b.toggles, t) // on
				t += length
				if t >= duration {
					break
				}
				b.toggles = append(b.toggles, t) // off
			}
			s.bursts = append(s.bursts, b)
		}
	}

	if spec.PartitionDur > 0 {
		s.partAt = spec.PartitionAt
		s.partEnd = spec.PartitionAt + spec.PartitionDur
		s.side = splitSides(positions)
	}

	s.buildEvents(duration)
	return s
}

// toggleTimes draws an alternating Exp(up)/Exp(down) toggle sequence on
// [0, duration): even entries are up→down transitions, odd down→up. The
// process starts up.
func toggleTimes(rng *sim.RNG, up, down sim.Time, duration sim.Time) []sim.Time {
	var out []sim.Time
	t := sim.Time(0)
	for {
		t += sim.Time(rng.Exp(float64(up)))
		if t >= duration {
			return out
		}
		out = append(out, t)
		t += sim.Time(rng.Exp(float64(down)))
		if t >= duration {
			return out
		}
		out = append(out, t)
	}
}

// pickLinks chooses k distinct links by a partial Fisher-Yates shuffle of
// the candidates' indices: the i-th pick swaps index i with a uniform one at
// or above it. The shuffled array is the identity except where a swap put
// another index, so only those k places are kept — moved, searched linearly
// — and a candidate set of a million pairs costs no more than one of k.
func pickLinks(rng *sim.RNG, links Links, k int) [][2]pkt.NodeID {
	n := links.Len()
	k = min(k, n)
	type place struct{ at, index int }
	moved := make([]place, 0, k)
	find := func(at int) int { return slices.IndexFunc(moved, func(p place) bool { return p.at == at }) }
	picked := make([][2]pkt.NodeID, k)
	for i := range picked {
		j := i + rng.IntN(n-i)
		vi, vj := i, j
		if s := find(i); s >= 0 {
			vi = moved[s].index
		}
		// Place i is never read again; place j takes i's index.
		if s := find(j); s >= 0 {
			vj, moved[s].index = moved[s].index, vi
		} else {
			moved = append(moved, place{j, vi})
		}
		picked[i] = links.Pair(vj)
	}
	return picked
}

func bounds(positions []radio.Pos) (minX, minY, maxX, maxY float64) {
	minX, minY = positions[0].X, positions[0].Y
	maxX, maxY = minX, minY
	for _, p := range positions[1:] {
		minX, maxX = min(minX, p.X), max(maxX, p.X)
		minY, maxY = min(minY, p.Y), max(maxY, p.Y)
	}
	return
}

// splitSides assigns each station a partition side by median x
// coordinate, so the cut divides the population roughly in half
// regardless of the topology's shape.
func splitSides(positions []radio.Pos) []bool {
	xs := make([]float64, len(positions))
	for i, p := range positions {
		xs[i] = p.X
	}
	sort.Float64s(xs)
	median := xs[len(xs)/2]
	side := make([]bool, len(positions))
	for i, p := range positions {
		side[i] = p.X >= median
	}
	return side
}

// buildEvents flattens station and noise toggles into one (time, kind,
// subject)-sorted list. Link flaps and the partition deliberately emit no
// events — the medium queries BlocksFrom per transmission instead.
func (s *Schedule) buildEvents(duration sim.Time) {
	for i, ts := range s.stationToggles {
		for k, t := range ts {
			kind := StationDown
			if k%2 == 1 {
				kind = StationUp
			}
			s.events = append(s.events, Event{At: t, Kind: kind, Station: pkt.NodeID(i)})
		}
	}
	for bi := range s.bursts {
		for k, t := range s.bursts[bi].toggles {
			kind := NoiseOn
			if k%2 == 1 {
				kind = NoiseOff
			}
			s.events = append(s.events, Event{At: t, Kind: kind, Burst: bi})
		}
	}
	sort.SliceStable(s.events, func(a, b int) bool {
		ea, eb := s.events[a], s.events[b]
		if ea.At != eb.At {
			return ea.At < eb.At
		}
		if ea.Kind != eb.Kind {
			return ea.Kind < eb.Kind
		}
		if ea.Station != eb.Station {
			return ea.Station < eb.Station
		}
		return ea.Burst < eb.Burst
	})
}

// Events returns the in-engine transition list, sorted by time with a
// deterministic tiebreak. The slice is owned by the Schedule; read only.
func (s *Schedule) Events() []Event { return s.events }

// Bursts returns the noise sources (coverage and penalties for event
// application). Read only.
func (s *Schedule) Bursts() []Burst { return s.bursts }

// Threshold returns the resolved forwarder-blacklist failure threshold.
func (s *Schedule) Threshold() int { return s.threshold }

// stateAt reports whether an alternating toggle process that starts "up"
// is in its odd ("down") phase at time t. Toggles strictly after t have
// not happened yet; a toggle exactly at t has.
func stateAt(toggles []sim.Time, t sim.Time) bool {
	n := sort.Search(len(toggles), func(i int) bool { return toggles[i] > t })
	return n%2 == 1
}

// StationDownAt reports whether station i is crashed at time t.
func (s *Schedule) StationDownAt(i pkt.NodeID, t sim.Time) bool {
	if s.stationToggles == nil {
		return false
	}
	return stateAt(s.stationToggles[i], t)
}

// LinkBlockedAt reports whether the a→b link is unusable at time t — a
// flapped link in its down phase, or a partition-crossing link during the
// partition window. Symmetric in a and b.
func (s *Schedule) LinkBlockedAt(a, b pkt.NodeID, t sim.Time) bool {
	if s.flapPeers != nil {
		for _, p := range s.flapPeers[a] {
			if p.peer == b {
				if stateAt(s.flapToggles[p.row], t) {
					return true
				}
				break
			}
		}
	}
	return s.partitionedAt(t) && s.side[a] != s.side[b]
}

func (s *Schedule) partitionedAt(t sim.Time) bool {
	return s.side != nil && t >= s.partAt && t < s.partEnd
}

// BlocksFrom reports whether LinkBlockedAt(a, b, t) can be true for any b:
// station a has a flapping link, or the partition window is open. The
// medium asks it once per transmission and skips the per-receiver query
// when the answer is no.
func (s *Schedule) BlocksFrom(a pkt.NodeID, t sim.Time) bool {
	return (s.flapPeers != nil && len(s.flapPeers[a]) > 0) || s.partitionedAt(t)
}

// BlocksLinks reports whether any link-level fault process exists (flaps
// or partition); when false the medium skips installing the link veto
// entirely.
func (s *Schedule) BlocksLinks() bool { return s.flapPeers != nil || s.side != nil }

// NoiseDBAt fills buf, one entry per station, with the cumulative SNR
// penalty in dB applied to receptions at each station at time t, and returns
// it (a buf too short is replaced). Bursts are walked once, in index order,
// each adding its penalty to the stations it covers, so a station under
// several sums them in that order.
func (s *Schedule) NoiseDBAt(t sim.Time, buf []float64) []float64 {
	if cap(buf) < s.n {
		buf = make([]float64, s.n)
	}
	buf = buf[:s.n]
	clear(buf)
	for bi := range s.bursts {
		b := &s.bursts[bi]
		if !stateAt(b.toggles, t) {
			continue
		}
		for _, id := range b.Covered {
			buf[id] += b.PenaltyDB
		}
	}
	return buf
}

// MaskedAt reports whether any fault is in effect at time t — a station
// down, a link flapped or partitioned, or a noise burst active. Epoch
// building consults it to decide whether the epoch's clean link table is the
// world's table as it stands or is first filtered through the fault overlay.
func (s *Schedule) MaskedAt(t sim.Time) bool {
	for _, ts := range s.stationToggles {
		if stateAt(ts, t) {
			return true
		}
	}
	for _, ts := range s.flapToggles {
		if stateAt(ts, t) {
			return true
		}
	}
	for bi := range s.bursts {
		if stateAt(s.bursts[bi].toggles, t) {
			return true
		}
	}
	return s.partitionedAt(t)
}

// ToggleCounts appends, for every fault process in a fixed order, the
// number of toggles that happened up to and including time t. Two times
// with equal counts have identical fault overlays, so epoch building uses
// count equality to share consecutive epoch worlds.
func (s *Schedule) ToggleCounts(t sim.Time, buf []int) []int {
	count := func(ts []sim.Time) int {
		return sort.Search(len(ts), func(i int) bool { return ts[i] > t })
	}
	for _, ts := range s.stationToggles {
		buf = append(buf, count(ts))
	}
	for _, ts := range s.flapToggles {
		buf = append(buf, count(ts))
	}
	for bi := range s.bursts {
		buf = append(buf, count(s.bursts[bi].toggles))
	}
	part := 0
	if s.side != nil {
		if t >= s.partAt {
			part++
		}
		if t >= s.partEnd {
			part++
		}
	}
	buf = append(buf, part)
	return buf
}
