package experiments

import (
	"strings"
	"testing"
)

func TestTableFormatAndCell(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "T", Unit: "Mbps",
		Columns: []string{"A", "B"},
		Rows:    []Row{{Label: "r1", Cells: []float64{1.5, 2.5}}},
	}
	out := tab.Format()
	if !strings.Contains(out, "x — T (Mbps)") || !strings.Contains(out, "1.50") {
		t.Fatalf("Format output:\n%s", out)
	}
	if v, ok := tab.Cell("r1", "B"); !ok || v != 2.5 {
		t.Fatalf("Cell = %v,%v", v, ok)
	}
	if _, ok := tab.Cell("r1", "Z"); ok {
		t.Fatal("missing column must report !ok")
	}
	if _, ok := tab.Cell("zz", "A"); ok {
		t.Fatal("missing row must report !ok")
	}
}

// The shape tests assert the paper's qualitative claims on the tables of
// the shared quick run (quickTable), with wide margins for its one seed.

// TestMotivationShape asserts §II's qualitative claims: preExOR and MCExOR
// reorder heavily (paper: 26.6% / 27.9%) while predetermined SPR does not,
// and MCExOR does not beat SPR.
func TestMotivationShape(t *testing.T) {
	tab := quickTable(t, "motivation")
	sprTput, _ := tab.Cell("SPR", "Mbps")
	sprRe, _ := tab.Cell("SPR", "reorder %")
	preRe, _ := tab.Cell("preExOR", "reorder %")
	mcRe, _ := tab.Cell("MCExOR", "reorder %")
	mcTput, _ := tab.Cell("MCExOR", "Mbps")
	if sprRe > 3 {
		t.Errorf("SPR reorder = %.1f%%, want ≈0", sprRe)
	}
	if preRe < 10 || mcRe < 10 {
		t.Errorf("opportunistic reorder = %.1f%% / %.1f%%, want >10%% (paper ≈27%%)", preRe, mcRe)
	}
	if mcTput > sprTput*1.15 {
		t.Errorf("MCExOR (%.1f) should not beat SPR (%.1f) meaningfully", mcTput, sprTput)
	}
}

// TestFig3aShape asserts the Fig. 3(a) ordering for one flow on ROUTE0:
// S ≪ D ≤ R1 and A < R16, with R16 the overall winner (the paper's
// 100-300% gains).
func TestFig3aShape(t *testing.T) {
	tab := quickTable(t, "fig3a")
	row := "1 flow(s)"
	s, _ := tab.Cell(row, "S")
	d, _ := tab.Cell(row, "D")
	r1, _ := tab.Cell(row, "R1")
	a, _ := tab.Cell(row, "A")
	r16, _ := tab.Cell(row, "R16")
	if s > d/2 {
		t.Errorf("S (%.2f) should be far below D (%.2f): direct link is poor", s, d)
	}
	if r1 < d*0.9 {
		t.Errorf("R1 (%.2f) should be at least comparable to D (%.2f)", r1, d)
	}
	if r16 <= a {
		t.Errorf("R16 (%.2f) must beat A (%.2f)", r16, a)
	}
	if r16 < 2*d {
		t.Errorf("R16 (%.2f) should show ≥100%% gain over D (%.2f)", r16, d)
	}
}

// TestFig6aShape: total throughput must not grow as flows are added, and
// RIPPLE must stay on top.
func TestFig6aShape(t *testing.T) {
	tab := quickTable(t, "fig6a")
	r1, _ := tab.Cell("1 flows", "RIPPLE")
	r10, _ := tab.Cell("10 flows", "RIPPLE")
	d10, _ := tab.Cell("10 flows", "DCF")
	if r10 > r1*1.5 {
		t.Errorf("total throughput grew with contention: %.1f → %.1f", r1, r10)
	}
	if r10 < d10 {
		t.Errorf("RIPPLE (%.1f) below DCF (%.1f) at 10 flows", r10, d10)
	}
}

// TestTable3Shape: with 10 VoIP calls on a clear channel every scheme
// scores ≈4.1; RIPPLE must not be worse than DCF under load.
func TestTable3Shape(t *testing.T) {
	tab := quickTable(t, "table3")
	for _, scheme := range []string{"DCF", "AFR", "RIPPLE"} {
		v, ok := tab.Cell(scheme, "1e-06/1..10")
		if !ok {
			t.Fatalf("missing cell for %s", scheme)
		}
		if v < 3.5 || v > 4.5 {
			t.Errorf("%s unloaded MoS = %.2f, want ≈4.1", scheme, v)
		}
	}
	rip, _ := tab.Cell("RIPPLE", "1e-06/1..30")
	dcf, _ := tab.Cell("DCF", "1e-06/1..30")
	if rip < dcf-0.3 {
		t.Errorf("RIPPLE loaded MoS (%.2f) should not trail DCF (%.2f)", rip, dcf)
	}
}

// TestAllRunnersExist ensures every experiment is registered and named.
func TestAllRunnersExist(t *testing.T) {
	want := []string{"motivation", "fig3", "fig4", "fig6a", "fig6b", "fig7", "fig8", "table3", "fig10", "fig12"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("runners = %d, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.Name != want[i] {
			t.Errorf("runner %d = %s, want %s", i, r.Name, want[i])
		}
		if r.Run == nil {
			t.Errorf("runner %s has nil func", r.Name)
		}
	}
}
