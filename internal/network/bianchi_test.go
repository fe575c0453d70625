package network

import (
	"math"
	"math/bits"
	"testing"

	"ripple/internal/phys"
	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
	"ripple/internal/stats"
)

// bianchiModelError is the share of the model's throughput that the
// simulator may differ from it by, beyond the seeds' 95 % confidence
// interval: Bianchi (2000) reports his fixed point within a few percent of
// simulated saturated DCF, and the MAC here departs from his chain in
// small ways (a frozen countdown is credited only whole slots, colliders
// resume after their ACK timeout and bystanders after EIFS). Fixed before
// the oracle was first run; a miss is a finding for docs/model.md, not a
// tolerance to tune.
const bianchiModelError = 0.05

// bianchiThroughput is Bianchi's normalised saturation throughput of n
// stations under basic access: the fixed point of τ, the chance a station
// transmits in a slot, and p, the chance its frame collides, solved by
// bisection on p, then S = Ps·Ptr·E[P] / ((1−Ptr)·σ + Ptr·Ps·Ts +
// Ptr·(1−Ps)·Tc). W and m come from the PHY's CWmin and CWmax, σ is its
// slot; a success costs the data frame, SIFS, the ACK and DIFS, a
// collision the data frame and EIFS. payload is the packet's bytes and
// frame the data frame's, MAC header included.
func bianchiThroughput(n int, p phys.Params, payload, frame int) (s, tau, coll float64) {
	w := float64(p.CWMin + 1)
	m := bits.Len(uint((p.CWMax+1)/(p.CWMin+1))) - 1 // CWmax+1 = 2^m·W
	tauOf := func(q float64) float64 {
		// 2(1−2q) / ((1−2q)(W+1) + qW(1−(2q)^m)), divided through by
		// 1−2q so that q = 1/2 is no 0/0.
		sum := 0.0
		for k := range m {
			sum += math.Pow(2*q, float64(k))
		}
		return 2 / (1 + w + q*w*sum)
	}
	lo, hi := 0.0, 1.0
	for range 60 {
		// 1 − (1 − τ(q))^(n−1) − q falls as q rises.
		if q := (lo + hi) / 2; 1-math.Pow(1-tauOf(q), float64(n-1)) > q {
			lo = q
		} else {
			hi = q
		}
	}
	coll = (lo + hi) / 2
	tau = tauOf(coll)
	ptr := 1 - math.Pow(1-tau, float64(n))
	ps := float64(n) * tau * math.Pow(1-tau, float64(n-1)) / ptr
	data := p.DataTime(frame)
	ts := (data + p.SIFS + p.ACKTime() + p.DIFS()).Seconds()
	tc := (data + p.EIFS()).Seconds()
	ep := float64(payload*8) / p.DataBps
	return ps * ptr * ep / ((1-ptr)*p.Slot.Seconds() + ptr*ps*ts + ptr*(1-ps)*tc), tau, coll
}

// TestDCFMatchesBianchi is the saturated-DCF oracle (docs/model.md,
// "Analytic oracles"): n ∈ {2, 5, 10, 20} DCF stations on an ideal radio
// (no shadowing, no bit errors) stand on a circle a quarter of the decode
// range around a sink, so every station hears every other and no frame
// survives a collision by capture. Each sends the sink saturated CBR, one
// 1,000-byte packet a frame, at the 6 Mbps PHY. The delivered payload's
// share of airtime, over five seeds of five simulated seconds, must lie
// within its 95 % confidence interval plus bianchiModelError of the
// model's share.
func TestDCFMatchesBianchi(t *testing.T) {
	const (
		packet = 1000
		dur    = 5 * sim.Second
	)
	ideal := radio.DefaultConfig()
	ideal.ShadowSigmaDB, ideal.BitErrorRate = 0, 0
	phy := phys.LowRate()
	r := ideal.RXRange() / 4
	for _, n := range []int{2, 5, 10, 20} {
		positions := []radio.Pos{{}}
		flows := make([]FlowSpec, n)
		for i := range n {
			a := 2 * math.Pi * float64(i) / float64(n)
			positions = append(positions, radio.Pos{X: r * math.Cos(a), Y: r * math.Sin(a)})
			flows[i] = FlowSpec{ID: i + 1, Path: routing.Path{pkt.NodeID(i + 1), 0}, Kind: CBRTraffic,
				CBRInterval: 100 * sim.Microsecond, CBRPacketBytes: packet}
		}
		var share stats.Welford
		for seed := uint64(1); seed <= 5; seed++ {
			res, err := Run(Config{Positions: positions, Radio: ideal, Phy: phy, Scheme: DCF, UnicastMaxAgg: 1,
				Flows: flows, Duration: dur, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			var delivered int64
			for _, f := range res.Flows {
				delivered += f.PktsDelivered
			}
			share.Add(float64(delivered) * packet * 8 / phy.DataBps / dur.Seconds())
		}
		want, tau, coll := bianchiThroughput(n, phy, packet, packet+phys.MACHeaderBytes)
		got, ci := share.Mean(), share.CI95()
		if tol := ci + bianchiModelError*want; math.Abs(got-want) > tol {
			t.Errorf("n = %d: normalised throughput %.4f ± %.4f, Bianchi %.4f (τ = %.4f, p = %.4f): off by %.4f, tolerance %.4f",
				n, got, ci, want, tau, coll, got-want, tol)
		} else {
			t.Logf("n = %d: normalised throughput %.4f ± %.4f, Bianchi %.4f (τ = %.4f, p = %.4f)", n, got, ci, want, tau, coll)
		}
	}
}
