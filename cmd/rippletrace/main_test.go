package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ripple/internal/golden"
	"ripple/internal/pkt"
	"ripple/internal/sim"
	"ripple/internal/trace"
)

// recordTrace writes the JSONL a run's trace.Recorder would: two mTXOPs on a
// three-station line, the first relayed by station 1 after station 2 missed
// the source's frame, the second reaching station 2 directly.
func recordTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := &trace.Recorder{W: &buf}
	hook := rec.Hook()
	data := func(txop uint64, tx pkt.NodeID, n int) *pkt.Frame {
		f := &pkt.Frame{Kind: pkt.Data, Tx: tx, Rx: pkt.Broadcast, Origin: 0, FinalDst: 2,
			FlowID: 1, TxopID: txop, Duration: sim.Time(n) * 40 * sim.Microsecond}
		for i := 0; i < n; i++ {
			f.Packets = append(f.Packets, &pkt.Packet{Bytes: 1000})
		}
		return f
	}
	ack := func(txop uint64, tx pkt.NodeID) *pkt.Frame {
		return &pkt.Frame{Kind: pkt.Ack, Tx: tx, Rx: 0, Origin: 0, FinalDst: 0,
			FlowID: 1, TxopID: txop, Duration: 30 * sim.Microsecond}
	}
	us := sim.Microsecond
	const a, b = 0x100000001, 0x100000002
	f := data(a, 0, 2)
	hook(100*us, "tx", 0, f)
	hook(181*us, "rx", 1, f)
	hook(182*us, "corrupt", 2, f)
	f = data(a, 1, 2)
	hook(206*us, "tx", 1, f)
	hook(287*us, "rx", 2, f)
	f = ack(a, 2)
	hook(303*us, "tx", 2, f)
	hook(334*us, "rx", 1, f)
	f = ack(a, 1)
	hook(350*us, "tx", 1, f)
	hook(381*us, "rx", 0, f)
	f = data(b, 0, 1)
	hook(500*us, "tx", 0, f)
	hook(541*us, "rx", 1, f)
	hook(542*us, "rx", 2, f)
	f = ack(b, 2)
	hook(558*us, "tx", 2, f)
	hook(589*us, "corrupt", 1, f)
	hook(590*us, "corrupt", 0, f)
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenStdout: the summary and one mTXOP's timeline over the recorded
// trace, from -in and from stdin, byte for byte against testdata.
func TestGoldenStdout(t *testing.T) {
	jsonl := recordTrace(t)
	file := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(file, jsonl, 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ name, args string }{
		{"summary", "-in " + file},
		{"summary_top1", "-top 1"}, // reads stdin
		{"txop", "-in " + file + " -txop 0x100000001"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(c.args), bytes.NewReader(jsonl), &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			if stderr.Len() != 0 {
				t.Errorf("stderr not empty:\n%s", stderr.String())
			}
			golden.Check(t, filepath.Join("testdata", c.name+".golden"), stdout.Bytes())
		})
	}
}

// TestExitCodes: a trace that cannot be read or holds nothing is a failure
// (1), a bad flag or mTXOP id a usage error (2); either way the reason goes
// to stderr and nothing to stdout.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		args, stdin string
		code        int
		want        string
	}{
		{"-in " + filepath.Join(t.TempDir(), "missing.jsonl"), "", 1, "no such file"},
		{"", "", 1, "no events"},
		{"", "not json\n", 1, "skipping malformed line"},
		{"-nosuchflag", "", 2, "flag provided but not defined"},
		{"-txop zz", string(recordTrace(t)), 2, `bad txop id "zz"`},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(c.args), strings.NewReader(c.stdin), &stdout, &stderr); code != c.code {
			t.Errorf("rippletrace %s: exit %d, want %d", c.args, code, c.code)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("rippletrace %s: stderr %q does not mention %q", c.args, stderr.String(), c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("rippletrace %s: wrote to stdout:\n%s", c.args, stdout.String())
		}
	}
}
