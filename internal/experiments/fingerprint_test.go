package experiments

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ripple/internal/campaign"
	"ripple/internal/golden"
)

// gridDir holds the golden grid fingerprints and their ledger.
var gridDir = filepath.Join("testdata", "grids")

// TestGridFingerprintsPinned plans every grid of every experiment — the
// figures, the ablations and the scaling sweep — without running a cell,
// and compares each grid's campaign.Plan fingerprint with the golden file.
// The fingerprint hashes every cell's network.Config, so a refactor of the
// drivers that leaves this file alone has declared the same scenarios.
// After an intended change: go test ./internal/experiments -run
// GridFingerprints -update, then rewrite the file's line in the ledger
// with the reason for every line that moved.
func TestGridFingerprintsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("fingerprints hash amd64 float values: other targets may fuse float operations differently")
	}
	var b strings.Builder
	opt := Options{RunGrid: func(g *campaign.Grid) (*campaign.Result, error) {
		p, err := g.Plan()
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "%s %s\n", g.Name, p.Fingerprint())
		return nil, nil // the worker-side placeholder: no cell runs
	}}
	runners := append(append(All(), Ablations()...), ScalingRunners()...)
	for _, r := range runners {
		if _, err := r.Run(opt); err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
	}
	golden.Check(t, filepath.Join(gridDir, "fingerprints.txt"), []byte(b.String()))
	golden.Ledger(t, gridDir)
}
