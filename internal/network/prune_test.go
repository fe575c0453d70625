package network

import (
	"reflect"
	"testing"

	"ripple/internal/campaign/pool"
	"ripple/internal/radio"
	"ripple/internal/sim"
	"ripple/internal/stats"
)

// pruneArm runs the smoke scenario over the given seeds with the given
// PruneSigma and folds delivery count and mean delay into Welford
// accumulators.
func pruneArm(t *testing.T, pruneSigma float64, seeds []uint64) (delivered, delayMs *stats.Welford) {
	t.Helper()
	delivered, delayMs = &stats.Welford{}, &stats.Welford{}
	for _, seed := range seeds {
		cfg := smokeConfig(seed)
		cfg.Radio = radio.DefaultConfig()
		cfg.Radio.PruneSigma = pruneSigma
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		delivered.Add(float64(res.Flows[0].PktsDelivered))
		delayMs.Add(res.Flows[0].MeanDelay.Milliseconds())
	}
	return delivered, delayMs
}

// ciOverlap reports whether the two samples' CI95 intervals overlap.
func ciOverlap(a, b *stats.Welford) bool {
	d := a.Mean() - b.Mean()
	if d < 0 {
		d = -d
	}
	return d <= a.CI95()+b.CI95()
}

// TestPrunedMediumStatisticallyEquivalent is the pruning acceptance test:
// the default PruneSigma medium must be statistically indistinguishable
// from the exact (PruneSigma=0) medium. The two arms draw different RNG
// sample paths — pruning reorders and skips shadowing draws — so the
// comparison is distributional: seed-averaged delivery and delay with
// overlapping 95% confidence intervals.
func TestPrunedMediumStatisticallyEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed equivalence sweep")
	}
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	exactDel, exactDelay := pruneArm(t, 0, seeds)
	prunedDel, prunedDelay := pruneArm(t, radio.DefaultPruneSigma, seeds)
	if !ciOverlap(exactDel, prunedDel) {
		t.Errorf("delivered packets diverged: exact %.1f ±%.1f vs pruned %.1f ±%.1f",
			exactDel.Mean(), exactDel.CI95(), prunedDel.Mean(), prunedDel.CI95())
	}
	if !ciOverlap(exactDelay, prunedDelay) {
		t.Errorf("mean delay diverged: exact %.2fms ±%.2f vs pruned %.2fms ±%.2f",
			exactDelay.Mean(), exactDelay.CI95(), prunedDelay.Mean(), prunedDelay.CI95())
	}
}

// TestSeedFanoutDeterministicWithPooling pins the pooled event core's
// isolation: every run owns its engine and medium pools, so fanning seeds
// over 1 worker or many must fold to identical results.
func TestSeedFanoutDeterministicWithPooling(t *testing.T) {
	cfg := smokeConfig(0)
	cfg.Radio = radio.DefaultConfig() // default PruneSigma: pruning on
	cfg.Duration = 500 * sim.Millisecond
	seeds := []uint64{1, 2, 3, 4, 5, 6}
	serialRuns, serialAvg, err := runSeedsOn(pool.New(1), cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	wideRuns, wideAvg, err := runSeedsOn(pool.New(8), cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialAvg, wideAvg) {
		t.Fatalf("averaged result differs across pool widths:\n1: %+v\n8: %+v", serialAvg, wideAvg)
	}
	for i := range serialRuns {
		if !reflect.DeepEqual(serialRuns[i], wideRuns[i]) {
			t.Fatalf("seed %d result differs across pool widths", seeds[i])
		}
	}
}
