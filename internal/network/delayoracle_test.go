package network

import (
	"math"
	"testing"

	"ripple/internal/phys"
	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
	"ripple/internal/stats"
)

// delayLaw is the exact one-way delay law of a packet that meets empty
// queues and no contender: base plus Slot times the sum of draws i.i.d.
// uniform on {0…CWmin}. weight[s] is the number of the (CWmin+1)^draws
// equally likely draw vectors whose sum is s.
type delayLaw struct {
	base, slot sim.Time
	weight     []int64
	total      int64
}

func newDelayLaw(base, slot sim.Time, cwMin, draws int) delayLaw {
	weight := []int64{1}
	for range draws {
		next := make([]int64, len(weight)+cwMin)
		for s, w := range weight {
			for b := 0; b <= cwMin; b++ {
				next[s+b] += w
			}
		}
		weight = next
	}
	total := int64(0)
	for _, w := range weight {
		total += w
	}
	return delayLaw{base: base, slot: slot, weight: weight, total: total}
}

func (l delayLaw) at(s int) sim.Time { return l.base + sim.Time(s)*l.slot }

// cdf returns P(D ≤ at(s)).
func (l delayLaw) cdf(s int) float64 {
	var c int64
	for _, w := range l.weight[:s+1] {
		c += w
	}
	return float64(c) / float64(l.total)
}

// quantile returns the law's q-quantiles as the range [lo, hi]: the least
// support point whose CDF reaches q and, when the CDF equals q exactly
// there (a flat at level q), the next support point too, since every delay
// between them is then a q-quantile.
func (l delayLaw) quantile(q float64) (lo, hi sim.Time) {
	var c int64
	for s, w := range l.weight {
		if c += w; float64(c) >= q*float64(l.total) {
			if float64(c) == q*float64(l.total) && s+1 < len(l.weight) {
				return l.at(s), l.at(s + 1)
			}
			return l.at(s), l.at(s)
		}
	}
	panic("delayLaw: weights do not reach q")
}

// mean returns E[D] in nanoseconds.
func (l delayLaw) mean() float64 {
	return float64(l.base) + float64(l.slot)*float64(len(l.weight)-1)/2
}

// driveFlowStats runs cfg as execute does and returns each flow's
// statistics before the fold: the delay histogram and sum, which a
// FlowResult does not carry.
func driveFlowStats(t *testing.T, cfg Config) []stats.Flow {
	t.Helper()
	world, err := prepare(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &run{}
	r.build(&cfg, world)
	r.armEpochs()
	r.armReroute()
	r.armFaults()
	r.startFlows()
	r.eng.Run(cfg.Duration)
	flows := append([]stats.Flow(nil), r.flowStats...)
	r.fold()
	r.reset()
	return flows
}

// rankBuckets returns the histogram bucket of each delay h counts, in
// ascending order of delay, read through Quantile: the delay of rank r + 1
// lies in the bucket Quantile returns at q = (r + ½)/n.
func rankBuckets(h *stats.Hist) []int {
	n := h.Count()
	b := make([]int, n)
	for r := range n {
		b[r] = stats.HistBucket(sim.Time(h.Quantile((float64(r) + 0.5) / float64(n))))
	}
	return b
}

// ksCritical is the Kolmogorov–Smirnov statistic's asymptotic critical
// value at α = 0.001 for n samples, √(−ln(α/2)/2) / √n; against a discrete
// law the test is conservative.
func ksCritical(n int64) float64 { return math.Sqrt(-math.Log(0.001/2)/2) / math.Sqrt(float64(n)) }

// TestLightLoadDelayMatchesClosedForm is the light-load delay oracle
// (docs/model.md, "Analytic oracles"). One CBR flow crosses an h-hop line,
// h ∈ {1, 2, 4}, of 200 m hops on an ideal radio (no shadowing, BER 0), so
// each station decodes only its neighbours and nothing collides. A packet
// every 5 ms, from 1 ms on, finds every queue empty and the medium idle for
// longer than DIFS, so its delay has a closed form, with T the data frame's
// airtime, p = 667 ns the propagation delay of a hop and the Bₖ i.i.d.
// uniform on {0…CWmin}:
//
//	DCF:    Σₖ₌₁ʰ (Bₖ·Slot + T + p) + (h−1)·(SIFS + T_ACK + DIFS)
//	RIPPLE: B·Slot + h·(T + p) + Σₖ₌₁ʰ⁻¹ ((h−k)·Slot + SIFS)
//
// The tolerances were fixed before the first run: (1) the delay sum less
// n times the law's least delay is a whole number of slots, to the
// nanosecond, and every histogram bucket that counts a delay holds a point
// of the law's support; (2) Hist.Quantile's p50, p95 and p99 each lie in a
// bucket of the law's exact quantile; (3) the histogram passes a one-sample
// Kolmogorov–Smirnov test against the law's CDF at α = 0.001, read at the
// last support point of each bucket. A flow starting at 0 would pay DIFS once more on its first
// packet, since each station's medium counts as idle from time 0.
func TestLightLoadDelayMatchesClosedForm(t *testing.T) {
	const (
		hop      = 200.0 // metres
		interval = 5 * sim.Millisecond
		start    = 1 * sim.Millisecond
		dur      = 10 * sim.Second
	)
	ideal := radio.DefaultConfig()
	ideal.ShadowSigmaDB, ideal.BitErrorRate = 0, 0
	phy := phys.Default()
	light := 299_792_458.0              // m/s
	prop := sim.Time(hop / light * 1e9) // a hop's propagation delay, truncated to the nanosecond as the medium does
	means := map[SchemeKind]map[int]float64{DCF: {}, Ripple: {}}
	for _, h := range []int{1, 2, 4} {
		positions := make([]radio.Pos, h+1)
		path := make(routing.Path, h+1)
		for i := range positions {
			positions[i] = radio.Pos{X: hop * float64(i)}
			path[i] = pkt.NodeID(i)
		}
		for _, scheme := range []SchemeKind{DCF, Ripple} {
			var law delayLaw
			switch scheme {
			case DCF:
				data := phy.DataTime(phys.MACHeaderBytes + phy.PacketBytes)
				base := sim.Time(h)*(data+prop) + sim.Time(h-1)*(phy.SIFS+phy.ACKTime()+phy.DIFS())
				law = newDelayLaw(base, phy.Slot, phy.CWMin, h)
			case Ripple:
				// The frame carries the forwarder list (h−1 relays and the
				// destination) and the sub-packet header of an aggregate.
				data := phy.DataTime(phys.MACHeaderBytes + h*phys.ForwarderEntryBytes + phy.PacketBytes + phys.PerPacketCRCBytes)
				base := sim.Time(h) * (data + prop)
				for k := 1; k < h; k++ {
					base += sim.Time(h-k)*phy.Slot + phy.SIFS
				}
				law = newDelayLaw(base, phy.Slot, phy.CWMin, 1)
			}
			fs := driveFlowStats(t, Config{Positions: positions, Radio: ideal, Phy: phy, Scheme: scheme,
				Flows:    []FlowSpec{{ID: 1, Path: path, Kind: CBRTraffic, CBRInterval: interval, Start: start}},
				Duration: dur, Seed: 1})[0]
			name := scheme.String()
			n := fs.DelayCount
			if want := int64((dur - start) / interval); n < want-1 {
				t.Fatalf("%s, h = %d: %d packets delivered, want about %d", name, h, n, want)
			}

			// (1) Every delay is on the law's lattice.
			if extra := fs.DelaySum - sim.Time(n)*law.base; extra < 0 || extra%law.slot != 0 {
				t.Errorf("%s, h = %d: delay sum %d ns is %d ns past n·%d ns, not a whole number of %d ns slots",
					name, h, fs.DelaySum, extra, law.base, law.slot)
			}
			ranks := rankBuckets(&fs.Delay)
			for r, i := range ranks {
				if r > 0 && ranks[r-1] == i {
					continue
				}
				onLattice := false
				for s := range law.weight {
					onLattice = onLattice || stats.HistBucket(law.at(s)) == i
				}
				if !onLattice {
					t.Errorf("%s, h = %d: histogram bucket %d counts a delay the law cannot give", name, h, i)
				}
			}

			// (2) The percentiles lie in the buckets of the law's quantiles.
			for _, q := range []float64{0.5, 0.95, 0.99} {
				got := stats.HistBucket(sim.Time(fs.Delay.Quantile(q)))
				lo, hi := law.quantile(q)
				if got < stats.HistBucket(lo) || got > stats.HistBucket(hi) {
					t.Errorf("%s, h = %d: p%g in bucket %d (%.0f ns), the law's quantile is %d–%d ns (buckets %d–%d)",
						name, h, 100*q, got, fs.Delay.Quantile(q), lo, hi, stats.HistBucket(lo), stats.HistBucket(hi))
				}
			}

			// (3) Kolmogorov–Smirnov at each support point that is the last
			// of its bucket: the delays up to it are then exactly those
			// counted in its bucket and the ones below.
			var d float64
			seen := 0
			for s := range law.weight {
				i := stats.HistBucket(law.at(s))
				if s+1 < len(law.weight) && stats.HistBucket(law.at(s+1)) == i {
					continue
				}
				for seen < len(ranks) && ranks[seen] <= i {
					seen++
				}
				d = max(d, math.Abs(float64(seen)/float64(n)-law.cdf(s)))
			}
			if crit := ksCritical(n); d > crit {
				t.Errorf("%s, h = %d: Kolmogorov–Smirnov D = %.4f over %d packets, critical %.4f at α = 0.001", name, h, d, n, crit)
			}
			t.Logf("%s, h = %d: %d packets, mean %d ns (law %.0f), p50/p95/p99 %.0f/%.0f/%.0f ns, KS D = %.4f (critical %.4f)",
				name, h, n, fs.MeanDelay(), law.mean(), fs.Delay.Quantile(0.5), fs.Delay.Quantile(0.95), fs.Delay.Quantile(0.99), d, ksCritical(n))
			means[scheme][h] = law.mean()
		}
	}
	for _, h := range []int{1, 2, 4} {
		t.Logf("h = %d: DCF − RIPPLE = %.0f ns in the law's mean", h, means[DCF][h]-means[Ripple][h])
	}
}
