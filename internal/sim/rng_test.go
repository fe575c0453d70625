package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministicPerSeedAndStream(t *testing.T) {
	a := NewRNG(42, 7)
	b := NewRNG(42, 7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed+stream must produce identical sequences")
		}
	}
}

func TestRNGStreamsAreIndependent(t *testing.T) {
	a := NewRNG(42, 1)
	b := NewRNG(42, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 1 and 2 coincide on %d/100 draws", same)
	}
}

func TestRNGIntNRange(t *testing.T) {
	g := NewRNG(1, 1)
	prop := func(n uint8) bool {
		m := int(n%64) + 1
		v := g.IntN(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGExpMean(t *testing.T) {
	g := NewRNG(3, 9)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += g.Exp(1.5)
	}
	mean := sum / n
	if math.Abs(mean-1.5) > 0.02 {
		t.Fatalf("Exp(1.5) sample mean = %.4f, want ≈1.5", mean)
	}
}

func TestRNGNormMoments(t *testing.T) {
	g := NewRNG(5, 11)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := g.Norm(-3, 8)
		sum += v
		sq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean+3) > 0.1 {
		t.Fatalf("Norm mean = %.3f, want ≈-3", mean)
	}
	if math.Abs(std-8) > 0.1 {
		t.Fatalf("Norm stddev = %.3f, want ≈8", std)
	}
}

// The paper's web model: Pareto with mean 80 KB and shape 1.5. The sample
// mean of a shape-1.5 Pareto converges slowly (infinite variance), so the
// tolerance is loose; the scale (minimum) is checked exactly.
func TestRNGParetoWithMean(t *testing.T) {
	g := NewRNG(7, 13)
	const n = 500000
	scale := 80e3 * 0.5 / 1.5
	var sum float64
	low := math.Inf(1)
	for i := 0; i < n; i++ {
		v := g.ParetoWithMean(1.5, 80e3)
		sum += v
		if v < low {
			low = v
		}
	}
	if low < scale*0.999 {
		t.Fatalf("Pareto minimum %.1f below scale %.1f", low, scale)
	}
	mean := sum / n
	if mean < 60e3 || mean > 110e3 {
		t.Fatalf("Pareto sample mean = %.0f, want ≈80000", mean)
	}
}

func TestRNGParetoTailProperty(t *testing.T) {
	g := NewRNG(11, 17)
	// P(X > 2*scale) = (1/2)^shape for a Pareto(shape, scale).
	const n = 100000
	shape, scale := 1.5, 100.0
	over := 0
	for i := 0; i < n; i++ {
		if g.Pareto(shape, scale) > 2*scale {
			over++
		}
	}
	want := math.Pow(0.5, shape)
	got := float64(over) / n
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("P(X>2s) = %.4f, want %.4f", got, want)
	}
}

func TestRNGBoolProbability(t *testing.T) {
	g := NewRNG(13, 19)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if g.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate = %.4f", p)
	}
}

// mixedDraws is n draws cycling through the four kinds the simulator makes,
// as bits, so that two generators can be compared exactly.
func mixedDraws(g *RNG, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		switch i % 4 {
		case 0:
			out[i] = uint64(g.IntN(i%1000 + 1))
		case 1:
			out[i] = math.Float64bits(g.Float64())
		case 2:
			out[i] = math.Float64bits(g.Norm(-70, 4))
		default:
			out[i] = math.Float64bits(g.Exp(1.5))
		}
	}
	return out
}

// A run arena reseeds the generators it keeps: Seed must restart a used
// generator on exactly the sequence a new one produces, and allocate nothing.
func TestRNGReseedMatchesNew(t *testing.T) {
	const n = 10000
	g := NewRNG(3, 100)
	mixedDraws(g, 777) // somewhere into another stream
	for _, s := range []struct{ seed, stream uint64 }{{1, 1}, {42, 107}, {1 << 63, 10001}} {
		want := mixedDraws(NewRNG(s.seed, s.stream), n)
		g.Seed(s.seed, s.stream)
		for i, v := range mixedDraws(g, n) {
			if v != want[i] {
				t.Fatalf("seed %d stream %d: draw %d differs after Seed", s.seed, s.stream, i)
			}
		}
	}
	if a := testing.AllocsPerRun(100, func() { g.Seed(9, 9) }); a != 0 {
		t.Fatalf("Seed allocates %.0f objects, want 0", a)
	}
}
