package network

import (
	"math"
	"testing"

	"ripple/internal/phys"
	"ripple/internal/pkt"
	"ripple/internal/radio"
	"ripple/internal/routing"
	"ripple/internal/sim"
	"ripple/internal/topology"
)

// deliveryCounter is a MAC that counts the data packets the medium hands
// up intact.
type deliveryCounter struct{ delivered int }

func (c *deliveryCounter) ChannelBusy()      {}
func (c *deliveryCounter) ChannelIdle()      {}
func (c *deliveryCounter) FrameCorrupted()   {}
func (c *deliveryCounter) TxDone(*pkt.Frame) {}
func (c *deliveryCounter) FrameReceived(_ *pkt.Frame, ok []bool) {
	if len(ok) == 1 && ok[0] {
		c.delivered++
	}
}

// binomialTails returns P(X ≤ k) and P(X ≥ k) for X ~ Binomial(n, p),
// 0 < p < 1.
func binomialTails(n, k int, p float64) (below, above float64) {
	lgN, _ := math.Lgamma(float64(n + 1))
	for i := 0; i <= n; i++ {
		lgI, _ := math.Lgamma(float64(i + 1))
		lgR, _ := math.Lgamma(float64(n - i + 1))
		pmf := math.Exp(lgN - lgI - lgR + float64(i)*math.Log(p) + float64(n-i)*math.Log1p(-p))
		if i <= k {
			below += pmf
		}
		if i >= k {
			above += pmf
		}
	}
	return below, above
}

// TestLinkDeliveryMatchesModel is the per-link analytic oracle
// (docs/model.md, "Analytic oracles"). Two stations on the city radio, at
// distances from 0.3× to 1.7× the 50 % decode range, exchange N
// single-packet data frames one at a time, so nothing collides: the fraction
// the medium delivers intact must lie inside the 99.9 % binomial interval
// of the model's own prediction, DeliveryProb(d, header + packet bits) —
// the shadowing draw against the decode threshold, then the bit-error
// process over the MAC header and the packet with its CRC. The link table
// a world over the same pair routes on (LinkTable, derive's builder) must
// store the ETX the router derives from that model, ETX(p, p) with
// p = 1 − LossProb(d), and no link where p is under minLinkProb.
func TestLinkDeliveryMatchesModel(t *testing.T) {
	const frames, packetBytes = 5000, 1000
	const alpha = 0.001 // two-sided
	headerBits := phys.MACHeaderBytes * 8
	packetBits := (packetBytes + phys.PerPacketCRCBytes) * 8
	rc := topology.CityRadio()
	stored := 0
	for i, frac := range []float64{0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.7} {
		d := frac * rc.RXRange()
		positions := []radio.Pos{{X: 0, Y: 0}, {X: d, Y: 0}}
		for _, ber := range []float64{0, 1e-5} {
			cfg := rc
			cfg.BitErrorRate = ber
			eng := sim.NewEngine()
			m := radio.NewMedium(eng, cfg, phys.Default(), positions, sim.NewRNG(uint64(7+i), 1))
			rx := &deliveryCounter{}
			m.Attach(0, &deliveryCounter{})
			m.Attach(1, rx)
			for k := 0; k < frames; k++ {
				m.Transmit(&pkt.Frame{
					Kind: pkt.Data, Tx: 0, Rx: 1, Origin: 0, FinalDst: 1,
					Packets:  []*pkt.Packet{{UID: uint64(k + 1), Bytes: packetBytes, Src: 0, Dst: 1}},
					Duration: 100 * sim.Microsecond,
				})
				eng.Run(sim.Time(k+1) * sim.Millisecond)
			}
			want := cfg.DeliveryProb(d, headerBits+packetBits)
			below, above := binomialTails(frames, rx.delivered, want)
			if below < alpha/2 || above < alpha/2 {
				t.Errorf("d = %.2f × RXRange, BER %g: %d/%d delivered (%.4f), model %.4f: outside the 99.9 %% interval (P(X ≤ k) = %.2g, P(X ≥ k) = %.2g)",
					frac, ber, rx.delivered, frames, float64(rx.delivered)/frames, want, below, above)
			} else {
				t.Logf("d = %.2f × RXRange, BER %g: %d/%d delivered, model %.4f", frac, ber, rx.delivered, frames, want)
			}
		}

		table, err := LinkTable(rc, positions)
		if err != nil {
			t.Fatal(err)
		}
		p := 1 - rc.LossProb(d)
		got := table.LinkETX(0, 1)
		switch want := routing.ETX(p, p); {
		case p < minLinkProb && !math.IsInf(got, 1):
			t.Errorf("d = %.2f × RXRange: p = %.4f is under minLinkProb, but the table stores ETX %g", frac, p, got)
		case p >= minLinkProb && got != want:
			t.Errorf("d = %.2f × RXRange: table ETX %v, want ETX(p, p) = %v for p = %.4f", frac, got, want, p)
		case p >= minLinkProb:
			stored++
		}
	}
	if stored == 0 || stored == 7 {
		t.Fatalf("%d of 7 pairs stored: the distances must exercise a link and a non-link", stored)
	}
}

// anyCandidate is a MAC that records the UID of the last data packet it
// decoded.
type anyCandidate struct{ last uint64 }

func (c *anyCandidate) ChannelBusy()      {}
func (c *anyCandidate) ChannelIdle()      {}
func (c *anyCandidate) FrameCorrupted()   {}
func (c *anyCandidate) TxDone(*pkt.Frame) {}
func (c *anyCandidate) FrameReceived(f *pkt.Frame, _ []bool) {
	c.last = f.Packets[0].UID
}

// TestAnyPathDeliveryMatchesProduct is the any-path analytic oracle
// (docs/model.md, "Analytic oracles"): the probability that at least one of
// K candidate forwarders decodes a frame is 1 − Π(1 − pᵢ), with pᵢ the
// per-link delivery probability — the P_sc of Li et al., and the premise of
// opportunistic routing, since each receiver's shadowing is drawn
// independently. A sender broadcasts N single-packet frames one at a time at
// BER 0 to K ∈ {2, 3, 5} candidates at mixed distances, on the city radio
// and on the paper's; the count of frames at least one candidate decoded
// must lie inside the 99.9 % binomial interval of the product.
func TestAnyPathDeliveryMatchesProduct(t *testing.T) {
	const frames = 5000
	const alpha = 0.001 // two-sided
	for r, radioCase := range []struct {
		name string
		rc   radio.Config
	}{
		{"city", topology.CityRadio()},
		{"default", radio.DefaultConfig()},
	} {
		for _, fracs := range [][]float64{
			{0.9, 1.2},
			{0.8, 1.1, 1.4},
			{0.7, 0.95, 1.1, 1.25, 1.5},
		} {
			rc := radioCase.rc
			rc.BitErrorRate = 0
			positions := []radio.Pos{{X: 0, Y: 0}}
			miss := 1.0
			for i, frac := range fracs {
				d := frac * rc.RXRange()
				angle := 2 * math.Pi * float64(i) / float64(len(fracs))
				positions = append(positions, radio.Pos{X: d * math.Cos(angle), Y: d * math.Sin(angle)})
				miss *= rc.LossProb(radio.Dist(positions[0], positions[i+1]))
			}
			want := 1 - miss
			eng := sim.NewEngine()
			m := radio.NewMedium(eng, rc, phys.Default(), positions, sim.NewRNG(uint64(31+10*r+len(fracs)), 1))
			m.Attach(0, &anyCandidate{})
			cands := make([]*anyCandidate, len(fracs))
			for i := range cands {
				cands[i] = &anyCandidate{}
				m.Attach(pkt.NodeID(i+1), cands[i])
			}
			reached := 0
			for k := 0; k < frames; k++ {
				uid := uint64(k + 1)
				m.Transmit(&pkt.Frame{
					Kind: pkt.Data, Tx: 0, Rx: pkt.Broadcast, Origin: 0, FinalDst: pkt.NodeID(len(fracs)),
					Packets:  []*pkt.Packet{{UID: uid, Bytes: 1000, Src: 0, Dst: pkt.NodeID(len(fracs))}},
					Duration: 100 * sim.Microsecond,
				})
				eng.Run(sim.Time(k+1) * sim.Millisecond)
				for _, c := range cands {
					if c.last == uid {
						reached++
						break
					}
				}
			}
			below, above := binomialTails(frames, reached, want)
			if below < alpha/2 || above < alpha/2 {
				t.Errorf("%s radio, K = %d: %d/%d frames reached a candidate (%.4f), 1 − Π(1 − pᵢ) = %.4f: outside the 99.9 %% interval (P(X ≤ k) = %.2g, P(X ≥ k) = %.2g)",
					radioCase.name, len(fracs), reached, frames, float64(reached)/frames, want, below, above)
			} else {
				t.Logf("%s radio, K = %d: %d/%d frames reached a candidate, 1 − Π(1 − pᵢ) = %.4f", radioCase.name, len(fracs), reached, frames, want)
			}
		}
	}
}
