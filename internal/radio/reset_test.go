package radio

import (
	"reflect"
	"testing"

	"ripple/internal/phys"
	"ripple/internal/pkt"
	"ripple/internal/sim"
)

// resetScript puts m on a line of n stations with a shadowed, bit-erroring
// radio, crashes one, raises the noise at another, and keeps pooled frames on
// the air — the last one cut off by the clock between its receptions' begins
// and ends. It returns what the stations saw.
func resetScript(eng *sim.Engine, m *Medium, rng *sim.RNG, n int) []recorderMAC {
	cfg := DefaultConfig()
	cfg.BitErrorRate = 1e-5
	pos := make([]Pos, n)
	for i := range pos {
		pos[i] = Pos{X: float64(i) * 90}
	}
	rng.Seed(5, 1)
	m.Init(eng, NewLinkPlan(cfg, pos), phys.Default(), rng)
	macs := make([]recorderMAC, n)
	for i := range macs {
		m.Attach(pkt.NodeID(i), &macs[i])
	}
	m.SetDown(pkt.NodeID(n-1), true)
	m.SetNoiseDB(1, 3)
	for k := 0; k < 40; k++ {
		tx := pkt.NodeID(k % (n - 1))
		rx := (tx + 2) % pkt.NodeID(n)
		eng.At(sim.Time(k)*300*sim.Microsecond, func() {
			f := m.NewFrame()
			f.Kind, f.Tx, f.Rx, f.Origin, f.FinalDst = pkt.Data, tx, rx, tx, rx
			f.Packets = append(f.Packets, &pkt.Packet{UID: uint64(k), Bytes: 1000})
			f.Duration = 200 * sim.Microsecond
			m.Transmit(f)
		})
	}
	eng.Run(39*300*sim.Microsecond + 100*sim.Microsecond)
	for i := range macs {
		macs[i].rx, macs[i].rxOK = nil, nil // frames are recycled: counts only
	}
	return macs
}

// A medium Reset and Init again — on a larger world, then a smaller — is a
// new medium: same counters, same upcalls, same shadowing and bit-error
// draws, with the last run's frame still on the air when it was cut.
func TestMediumResetThenInitIsANewMedium(t *testing.T) {
	var eng sim.Engine
	var m Medium
	var rng sim.RNG
	for _, n := range []int{4, 9, 3, 9} {
		var freshEng sim.Engine
		var fresh Medium
		var freshRNG sim.RNG
		want := resetScript(&freshEng, &fresh, &freshRNG, n)
		if fresh.OnAir() == 0 || fresh.Frames().InUse() == 0 {
			t.Fatal("the script must end with a transmission on the air")
		}
		got := resetScript(&eng, &m, &rng, n)
		if !reflect.DeepEqual(got, want) || m.Counters != fresh.Counters {
			t.Fatalf("%d stations on a reused medium: %+v %+v, on a new one %+v %+v",
				n, got, m.Counters, want, fresh.Counters)
		}
		if m.Counters.FramesDelivered == 0 || m.Counters.FramesShadowed+m.Counters.HeaderErrors == 0 {
			t.Fatalf("script too quiet to tell media apart: %+v", m.Counters)
		}
		eng.Reset()
		m.Reset()
		if m.OnAir() != 0 || m.NumStations() != 0 || m.Plan() != nil || m.Counters != (Counters{}) ||
			m.Frames().InUse() != 0 || m.Down(0) {
			t.Fatalf("after Reset the medium is not empty: %d on air, %d stations, counters %+v",
				m.OnAir(), m.NumStations(), m.Counters)
		}
	}
	if a := testing.AllocsPerRun(5, func() { eng.Reset(); m.Reset() }); a != 0 {
		t.Fatalf("Reset allocates %.0f objects", a)
	}
}
