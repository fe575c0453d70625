package radio

import (
	"fmt"
	"testing"

	"ripple/internal/phys"
	"ripple/internal/pkt"
	"ripple/internal/sim"
)

// stubVeto is a LinkBlocker that blocks nothing: from is its BlocksFrom
// answer, so true makes Transmit pay the per-receiver query for every
// candidate and false makes it pay the pre-check alone.
type stubVeto struct{ from bool }

func (v stubVeto) BlocksFrom(pkt.NodeID, sim.Time) bool              { return v.from }
func (stubVeto) LinkBlockedAt(pkt.NodeID, pkt.NodeID, sim.Time) bool { return false }

// BenchmarkTransmit is one Transmit plus the drain of the reception events
// it schedules, on the default shadowed radio, by transmitter degree: deg+1
// stations on a 60 m grid, unpruned, so every other station is a candidate
// receiver and the far ones fall below carrier sense as in a city row.
// veto=none installs no link veto, veto=quiet one whose pre-check clears
// the transmitter (a fault run's common case), veto=armed one consulted
// for every candidate (a transmitter with a flapping link).
func BenchmarkTransmit(b *testing.B) {
	vetoes := []struct {
		name string
		v    LinkBlocker
	}{{"none", nil}, {"quiet", stubVeto{false}}, {"armed", stubVeto{true}}}
	for _, deg := range []int{3, 30, 230} {
		n := deg + 1
		side := 1
		for side*side < n {
			side++
		}
		positions := make([]Pos, n)
		for i := range positions {
			positions[i] = Pos{X: float64(i%side) * 60, Y: float64(i/side) * 60}
		}
		cfg := DefaultConfig()
		cfg.PruneSigma = 0
		plan := NewLinkPlan(cfg, positions)
		for _, veto := range vetoes {
			b.Run(fmt.Sprintf("deg=%d/veto=%s", deg, veto.name), func(b *testing.B) {
				eng := sim.NewEngine()
				p := phys.Default()
				m := NewMediumOn(eng, plan, p, sim.NewRNG(1, 1))
				for i := 0; i < n; i++ {
					m.Attach(pkt.NodeID(i), &nullMAC{})
				}
				if veto.v != nil {
					m.SetLinkBlocked(veto.v)
				}
				air := p.DataTime(p.PacketBytes)
				fwd := []pkt.NodeID{1, 2, 3}
				f := &pkt.Frame{Kind: pkt.Data, Rx: pkt.Broadcast, FwdList: fwd, Duration: air}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f.Tx = pkt.NodeID(i % n)
					m.Transmit(f)
					eng.Run(eng.Now() + air + sim.Millisecond)
				}
			})
		}
	}
}

// BenchmarkTransmitRow is what a station's first transmission under a plan
// adds to Transmit: deriving its row (LinkPlan.appendRow) into the medium's
// row cache — here one reused slab — on a pruned 2000-station layout of
// about 235 neighbours per station, a city_mobile_faulty transmitter's
// degree.
func BenchmarkTransmitRow(b *testing.B) {
	pl := NewLinkPlan(DefaultConfig(), randomCity(2000, 20000, 5))
	var links []link
	var ord []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		links, ord = pl.appendRow(links[:0], ord[:0], i%pl.n)
	}
	b.ReportMetric(float64(pl.Links())/float64(pl.n), "links/row")
}
