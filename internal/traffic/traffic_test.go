package traffic

import (
	"testing"

	"ripple/internal/pkt"
	"ripple/internal/sim"
	"ripple/internal/stats"
	"ripple/internal/transport"
)

// loopback delivers packets directly between TCP endpoints.
type loopback struct {
	eng  *sim.Engine
	conn *transport.TCP
}

func (l *loopback) send(p *pkt.Packet) bool {
	l.eng.After(sim.Millisecond, func() { l.conn.Receive(p.Dst, p) })
	return true
}

func TestWebGeneratesSuccessiveTransfers(t *testing.T) {
	eng := sim.NewEngine()
	fs := &stats.Flow{ID: 1}
	lb := &loopback{eng: eng}
	conn := transport.NewTCP(eng, transport.DefaultTCPConfig(), 1, 0, 1, lb.send, lb.send, fs)
	lb.conn = conn
	w := new(Web)
	// Init fills the zero fields with the paper's values; fast think times
	// for the test.
	w.Init(eng, WebConfig{OffMean: 50 * sim.Millisecond}, conn, sim.NewRNG(1, 1))
	w.Start()
	eng.Run(30 * sim.Second)
	if fs.TransfersCompleted < 5 {
		t.Fatalf("completed %d transfers in 30s, want several", fs.TransfersCompleted)
	}
	if fs.AppBytes == 0 {
		t.Fatal("no bytes transferred")
	}
	// Mean transfer size should be in the Pareto(1.5, mean 80KB) ballpark;
	// small samples skew low because the mass sits near the 26.7KB scale.
	mean := float64(fs.AppBytes) / float64(fs.TransfersCompleted)
	if mean < 25e3 {
		t.Fatalf("mean transfer = %.0f bytes, below the Pareto scale", mean)
	}
}

func TestDefaultWebConfigMatchesPaper(t *testing.T) {
	var cfg WebConfig
	cfg.Normalize()
	if cfg.MeanTransferBytes != 80e3 {
		t.Fatalf("mean transfer = %v, want 80KB", cfg.MeanTransferBytes)
	}
	if cfg.ParetoShape != 1.5 {
		t.Fatalf("shape = %v, want 1.5", cfg.ParetoShape)
	}
	if cfg.OffMean != sim.Second {
		t.Fatalf("off mean = %v, want 1s", cfg.OffMean)
	}
}
