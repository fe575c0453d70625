package fault

import (
	"reflect"
	"testing"

	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/sim"
)

func linePositions(n int) []radio.Pos {
	ps := make([]radio.Pos, n)
	for i := range ps {
		ps[i] = radio.Pos{X: float64(i) * 100}
	}
	return ps
}

func lineLinks(n int) [][2]pkt.NodeID {
	var ls [][2]pkt.NodeID
	for i := 0; i < n-1; i++ {
		ls = append(ls, [2]pkt.NodeID{pkt.NodeID(i), pkt.NodeID(i + 1)})
	}
	return ls
}

func TestZeroSpecInert(t *testing.T) {
	var s Spec
	if s.Active() {
		t.Fatal("zero spec reports Active")
	}
	if s.Threshold() != DefaultFailureThreshold {
		t.Fatalf("zero spec threshold = %d", s.Threshold())
	}
	if s.EpochLen() != DefaultEpoch {
		t.Fatalf("zero spec epoch = %v", s.EpochLen())
	}
}

// Build must be a pure function of its arguments: two builds of the same
// spec are deep-equal, and the schedule never consults anything else.
func TestBuildDeterministic(t *testing.T) {
	spec := Spec{
		Seed: 7, MTBF: 5 * sim.Second, MTTR: 500 * sim.Millisecond,
		FlapLinks: 2, NoiseBursts: 2,
		PartitionAt: 2 * sim.Second, PartitionDur: 1 * sim.Second,
	}
	pos := linePositions(8)
	links := lineLinks(8)
	a := Build(spec, 20*sim.Second, pos, nil, links)
	b := Build(spec, 20*sim.Second, pos, nil, links)
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatal("two builds of the same spec differ")
	}
	if len(a.Events()) == 0 {
		t.Fatal("expected churn events over 20 s at MTBF 5 s")
	}
	// A different fault seed must yield a different timeline.
	spec.Seed = 8
	c := Build(spec, 20*sim.Second, pos, nil, links)
	if reflect.DeepEqual(a.Events(), c.Events()) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestExemptStationsNeverCrash(t *testing.T) {
	spec := Spec{MTBF: 200 * sim.Millisecond, MTTR: 100 * sim.Millisecond}
	pos := linePositions(4)
	exempt := []bool{true, false, false, true}
	s := Build(spec, 30*sim.Second, pos, exempt, nil)
	for _, ev := range s.Events() {
		if ev.Station == 0 || ev.Station == 3 {
			t.Fatalf("exempt station %d got event %+v", ev.Station, ev)
		}
	}
	for t10 := sim.Time(0); t10 < 30*sim.Second; t10 += 100 * sim.Millisecond {
		if s.StationDownAt(0, t10) || s.StationDownAt(3, t10) {
			t.Fatalf("exempt station down at %v", t10)
		}
	}
	// With such aggressive churn the non-exempt relays must go down.
	down := false
	for t10 := sim.Time(0); t10 < 30*sim.Second; t10 += 10 * sim.Millisecond {
		if s.StationDownAt(1, t10) || s.StationDownAt(2, t10) {
			down = true
			break
		}
	}
	if !down {
		t.Fatal("no relay ever crashed under MTBF 200 ms over 30 s")
	}
}

func TestPartitionWindow(t *testing.T) {
	spec := Spec{PartitionAt: 1 * sim.Second, PartitionDur: 2 * sim.Second}
	if !spec.Active() {
		t.Fatal("partition spec not Active")
	}
	pos := linePositions(6) // median x = 300 → sides {0,1,2} | {3,4,5}
	s := Build(spec, 10*sim.Second, pos, nil, nil)
	cross := [2]pkt.NodeID{2, 3}
	same := [2]pkt.NodeID{0, 1}
	cases := []struct {
		at      sim.Time
		blocked bool
	}{
		{999 * sim.Millisecond, false},
		{1 * sim.Second, true},
		{2999 * sim.Millisecond, true},
		{3 * sim.Second, false},
	}
	for _, c := range cases {
		if got := s.LinkBlockedAt(cross[0], cross[1], c.at); got != c.blocked {
			t.Fatalf("cross link at %v: blocked=%v, want %v", c.at, got, c.blocked)
		}
		if got := s.LinkBlockedAt(cross[1], cross[0], c.at); got != c.blocked {
			t.Fatalf("cross link (reversed) at %v: blocked=%v, want %v", c.at, got, c.blocked)
		}
		if s.LinkBlockedAt(same[0], same[1], c.at) {
			t.Fatalf("same-side link blocked at %v", c.at)
		}
	}
	if !s.MaskedAt(2*sim.Second) || s.MaskedAt(5*sim.Second) {
		t.Fatal("MaskedAt disagrees with the partition window")
	}
}

func TestFlapsSymmetricAndBounded(t *testing.T) {
	spec := Spec{FlapLinks: 3}
	pos := linePositions(8)
	links := lineLinks(8)
	dur := 30 * sim.Second
	s := Build(spec, dur, pos, nil, links)
	if !s.BlocksLinks() {
		t.Fatal("flap schedule reports BlocksLinks false")
	}
	flapped := 0
	for _, l := range links {
		blockedEver := false
		for at := sim.Time(0); at < dur; at += 20 * sim.Millisecond {
			fwd := s.LinkBlockedAt(l[0], l[1], at)
			rev := s.LinkBlockedAt(l[1], l[0], at)
			if fwd != rev {
				t.Fatalf("asymmetric flap on %v at %v", l, at)
			}
			blockedEver = blockedEver || fwd
		}
		if blockedEver {
			flapped++
		}
	}
	if flapped == 0 || flapped > 3 {
		t.Fatalf("flapped links observed = %d, want 1..3", flapped)
	}
}

func TestNoisePenaltyCoverage(t *testing.T) {
	spec := Spec{NoiseBursts: 1, NoiseRadius: 150, NoisePenaltyDB: 12}
	pos := linePositions(12)
	dur := 30 * sim.Second
	s := Build(spec, dur, pos, nil, nil)
	if len(s.Bursts()) != 1 {
		t.Fatalf("bursts = %d", len(s.Bursts()))
	}
	b := s.Bursts()[0]
	covered := make(map[pkt.NodeID]bool)
	for _, id := range b.Covered {
		covered[id] = true
		if d := radio.Dist(pos[id], b.Center); d > 150 {
			t.Fatalf("station %d covered at distance %.0f > radius", id, d)
		}
	}
	sawPenalty := false
	var noise []float64
	for at := sim.Time(0); at < dur; at += 10 * sim.Millisecond {
		noise = s.NoiseDBAt(at, noise)
		for i, got := range noise {
			if !covered[pkt.NodeID(i)] && got != 0 {
				t.Fatalf("uncovered station %d penalised %v dB at %v", i, got, at)
			}
			if covered[pkt.NodeID(i)] && got == 12 {
				sawPenalty = true
			}
		}
	}
	if len(b.Covered) > 0 && !sawPenalty {
		t.Fatal("no covered station ever saw the burst penalty")
	}
}

// ToggleCounts equality must coincide with overlay equality: equal counts
// at two times ⇒ identical StationDownAt/LinkBlockedAt answers, and a
// toggle in between must change the counts.
func TestToggleCountsTrackOverlay(t *testing.T) {
	spec := Spec{MTBF: 2 * sim.Second, MTTR: 300 * sim.Millisecond, FlapLinks: 2}
	pos := linePositions(6)
	s := Build(spec, 20*sim.Second, pos, nil, lineLinks(6))
	evs := s.Events()
	if len(evs) < 2 {
		t.Skip("not enough events to compare")
	}
	// Two probes inside the same inter-event gap share counts; probes
	// across an event differ.
	a, b := evs[0].At, evs[1].At
	mid1 := a + (b-a)/3
	mid2 := a + 2*(b-a)/3
	if mid1 == mid2 {
		t.Skip("events too close to probe")
	}
	c1 := s.ToggleCounts(mid1, nil)
	c2 := s.ToggleCounts(mid2, nil)
	if !reflect.DeepEqual(c1, c2) {
		t.Fatalf("counts differ within one gap: %v vs %v", c1, c2)
	}
	before := s.ToggleCounts(a-1, nil)
	if reflect.DeepEqual(before, c1) {
		t.Fatalf("counts unchanged across event at %v", a)
	}
}

// Common-random-numbers coupling: halving the MTBF re-uses the same
// uniform draws, so every station's total downtime can only grow as the
// failure rate rises. This is what makes per-seed degradation curves
// monotone instead of merely monotone in expectation.
func TestDowntimeMonotoneInChurnRate(t *testing.T) {
	pos := linePositions(6)
	dur := 60 * sim.Second
	downtime := func(mtbf sim.Time) sim.Time {
		s := Build(Spec{MTBF: mtbf, MTTR: 1 * sim.Second}, dur, pos, nil, nil)
		var total sim.Time
		for i := range pos {
			for at := sim.Time(0); at < dur; at += 5 * sim.Millisecond {
				if s.StationDownAt(pkt.NodeID(i), at) {
					total += 5 * sim.Millisecond
				}
			}
		}
		return total
	}
	d60 := downtime(60 * sim.Second)
	d20 := downtime(20 * sim.Second)
	d5 := downtime(5 * sim.Second)
	if !(d60 <= d20 && d20 <= d5) {
		t.Fatalf("downtime not monotone: mtbf60=%v mtbf20=%v mtbf5=%v", d60, d20, d5)
	}
	if d5 == 0 {
		t.Fatal("no downtime at MTBF 5 s over 60 s")
	}
}

// refLinkBlocked is LinkBlockedAt written the slow way, for the property
// test: scan the picked links for the pair, count the toggles of its row
// that have happened by t, then test the partition window by side.
func refLinkBlocked(s *Schedule, picked [][2]pkt.NodeID, a, b pkt.NodeID, t sim.Time) bool {
	for k, l := range picked {
		if (l[0] == a && l[1] == b) || (l[0] == b && l[1] == a) {
			happened := 0
			for _, at := range s.flapToggles[k] {
				if at <= t {
					happened++
				}
			}
			if happened%2 == 1 {
				return true
			}
		}
	}
	return s.side != nil && s.partAt <= t && t < s.partEnd && s.side[a] != s.side[b]
}

// The per-station flap index must answer exactly like a scan of the picked
// links, for every pair of a small world at every instant an answer can
// change (each toggle and partition edge, ±1 ns); the answer is symmetric;
// and BlocksFrom — the medium's once-per-transmission pre-check — is never
// false for a station with a blocked link, nor true for one that has no
// flapping link while the partition is closed.
func TestLinkVetoIndexMatchesBruteForce(t *testing.T) {
	const n = 14
	dur := 6 * sim.Second
	for seed := uint64(1); seed <= 40; seed++ {
		rng := sim.NewRNG(seed, 77)
		pos := make([]radio.Pos, n)
		for i := range pos {
			pos[i] = radio.Pos{X: rng.Float64() * 500, Y: rng.Float64() * 500}
		}
		var links [][2]pkt.NodeID
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.IntN(3) > 0 {
					links = append(links, [2]pkt.NodeID{pkt.NodeID(a), pkt.NodeID(b)})
				}
			}
		}
		spec := Spec{
			Seed:      seed,
			FlapLinks: rng.IntN(12),
			FlapUp:    sim.Time(1+rng.IntN(900)) * sim.Millisecond,
			FlapDown:  sim.Time(1+rng.IntN(400)) * sim.Millisecond,
		}
		if rng.IntN(3) > 0 {
			spec.PartitionAt = sim.Time(rng.IntN(4000)) * sim.Millisecond
			spec.PartitionDur = sim.Time(1+rng.IntN(3000)) * sim.Millisecond
		}
		s := Build(spec, dur, pos, nil, links)
		var picked [][2]pkt.NodeID
		if spec.FlapLinks > 0 {
			picked = pickLinks(sim.NewRNG(spec.seed(), 2), PairList(links), spec.FlapLinks)
		}
		flapping := make([]bool, n)
		for _, l := range picked {
			flapping[l[0]], flapping[l[1]] = true, true
		}

		times := []sim.Time{0, dur}
		for _, row := range s.flapToggles {
			times = append(times, row...)
		}
		if spec.PartitionDur > 0 {
			times = append(times, s.partAt, s.partEnd)
		}
		for _, edge := range times {
			for _, at := range []sim.Time{edge - 1, edge, edge + 1} {
				partitioned := spec.PartitionDur > 0 && s.partAt <= at && at < s.partEnd
				for a := pkt.NodeID(0); a < n; a++ {
					from := s.BlocksFrom(a, at)
					if !flapping[a] && !partitioned && from {
						t.Fatalf("seed %d: BlocksFrom(%d, %v) true with no flapping link and the partition closed", seed, a, at)
					}
					for b := pkt.NodeID(0); b < n; b++ {
						if a == b {
							continue
						}
						got, want := s.LinkBlockedAt(a, b, at), refLinkBlocked(s, picked, a, b, at)
						if got != want {
							t.Fatalf("seed %d: LinkBlockedAt(%d, %d, %v) = %v, brute force says %v", seed, a, b, at, got, want)
						}
						if rev := s.LinkBlockedAt(b, a, at); rev != got {
							t.Fatalf("seed %d: LinkBlockedAt asymmetric on (%d, %d) at %v", seed, a, b, at)
						}
						if got && !from {
							t.Fatalf("seed %d: link (%d, %d) blocked at %v but BlocksFrom(%d) is false", seed, a, b, at, a)
						}
					}
				}
			}
		}
	}
}

var sinkBlocked int

// BenchmarkLinkBlockedAt is the medium's per-receiver veto query at city
// scale: 20 flapping links among the ~230 k links of a 2000-station world
// with mean degree ~230, asked about random links at random instants.
func BenchmarkLinkBlockedAt(b *testing.B) {
	const n, reach = 2000, 116
	var links [][2]pkt.NodeID
	for a := 0; a < n; a++ {
		for c := a + 1; c <= a+reach && c < n; c++ {
			links = append(links, [2]pkt.NodeID{pkt.NodeID(a), pkt.NodeID(c)})
		}
	}
	dur := 5 * sim.Second
	s := Build(Spec{Seed: 3, FlapLinks: 20}, dur, linePositions(n), nil, links)
	rng := sim.NewRNG(1, 9)
	type query struct {
		a, b pkt.NodeID
		at   sim.Time
	}
	qs := make([]query, 1<<12)
	for i := range qs {
		l := links[rng.IntN(len(links))]
		qs[i] = query{l[0], l[1], sim.Time(rng.Float64() * float64(dur))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	blocked := 0
	for i := 0; i < b.N; i++ {
		q := qs[i&(len(qs)-1)]
		if s.LinkBlockedAt(q.a, q.b, q.at) {
			blocked++
		}
	}
	sinkBlocked = blocked
}

// copyShuffled is the reference pickLinks: a partial Fisher-Yates shuffle of
// a copy of the whole candidate list.
func copyShuffled(rng *sim.RNG, links [][2]pkt.NodeID, k int) [][2]pkt.NodeID {
	c := append([][2]pkt.NodeID(nil), links...)
	k = min(k, len(c))
	for i := 0; i < k; i++ {
		j := i + rng.IntN(len(c)-i)
		c[i], c[j] = c[j], c[i]
	}
	return c[:k]
}

// pickLinks keeps only the places its swaps moved, and picks what shuffling
// a copy of the whole list picks: the same draws, the same pairs in the same
// order, from one candidate to thousands and from one pick to all of them.
func TestPickLinksMatchesCopyShuffle(t *testing.T) {
	gen := sim.NewRNG(5, 0)
	for trial := 0; trial < 300; trial++ {
		links := make([][2]pkt.NodeID, 1+gen.IntN(3000))
		for i := range links {
			links[i] = [2]pkt.NodeID{pkt.NodeID(i), pkt.NodeID(gen.IntN(1 << 20))}
		}
		k := 1 + gen.IntN(40)
		if trial%10 == 0 {
			k = len(links) + gen.IntN(3)
		}
		want := copyShuffled(sim.NewRNG(uint64(trial), 2), links, k)
		if got := pickLinks(sim.NewRNG(uint64(trial), 2), PairList(links), k); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d, %d of %d candidates: picked %v, the copy shuffle %v", trial, k, len(links), got, want)
		}
	}
}
