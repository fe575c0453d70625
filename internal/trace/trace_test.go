package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"ripple/internal/pkt"
	"ripple/internal/sim"
)

func frame(kind pkt.FrameKind, tx pkt.NodeID, dur sim.Time, npkts int) *pkt.Frame {
	f := &pkt.Frame{Kind: kind, Tx: tx, Duration: dur, FlowID: 1}
	for i := 0; i < npkts; i++ {
		f.Packets = append(f.Packets, &pkt.Packet{Bytes: 1000})
	}
	return f
}

func TestRecorderAirtime(t *testing.T) {
	var r Recorder
	now := sim.Time(0)
	hook := func(k string, n pkt.NodeID, f *pkt.Frame) { r.record(now, k, n, f) }
	hook("tx", 0, frame(pkt.Data, 0, 100*sim.Microsecond, 2))
	hook("tx", 0, frame(pkt.Data, 0, 50*sim.Microsecond, 1))
	hook("tx", 1, frame(pkt.Ack, 1, 20*sim.Microsecond, 0))
	hook("rx", 1, frame(pkt.Data, 0, 100*sim.Microsecond, 2)) // rx: no airtime

	air := r.Airtime()
	if air[0] != 150*sim.Microsecond {
		t.Fatalf("node 0 airtime = %v", air[0])
	}
	if air[1] != 20*sim.Microsecond {
		t.Fatalf("node 1 airtime = %v", air[1])
	}
}

func TestRecorderBusyFraction(t *testing.T) {
	var r Recorder
	hook := func(k string, n pkt.NodeID, f *pkt.Frame) { r.record(0, k, n, f) }
	hook("tx", 0, frame(pkt.Data, 0, 250*sim.Millisecond, 1))
	got := r.BusyFraction(sim.Second)
	if got < 0.249 || got > 0.251 {
		t.Fatalf("BusyFraction = %v, want 0.25", got)
	}
	if r.BusyFraction(0) != 0 {
		t.Fatal("zero duration must not divide by zero")
	}
}

func TestRecorderJSONL(t *testing.T) {
	var buf bytes.Buffer
	r := Recorder{W: &buf}
	now := sim.Time(42 * sim.Microsecond)
	hook := func(k string, n pkt.NodeID, f *pkt.Frame) { r.record(now, k, n, f) }
	hook("tx", 3, frame(pkt.Data, 3, 100*sim.Microsecond, 2))
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("no JSONL line written")
	}
	var ev Event
	if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.TimeNs != int64(42*sim.Microsecond) || ev.Node != 3 || ev.Frame.Kind != "DATA" {
		t.Fatalf("event = %+v", ev)
	}
	if ev.Frame.Packets != 2 || ev.Frame.Bytes != 2000 {
		t.Fatalf("frame info = %+v", ev.Frame)
	}
}
