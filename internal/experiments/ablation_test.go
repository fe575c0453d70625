package experiments

import "testing"

// The ablation shape tests assert directional claims about the ablations
// docs/model.md lists, on the tables of the shared quick run.

func TestAblationAggLimitMonotone(t *testing.T) {
	tab := quickTable(t, "ablation-agg")
	prev := 0.0
	for i, r := range tab.Rows {
		v := r.Cells[0]
		if i > 0 && v < prev*0.85 {
			t.Errorf("throughput dropped sharply at %s: %.1f after %.1f", r.Label, v, prev)
		}
		prev = v
	}
	first, last := tab.Rows[0].Cells[0], tab.Rows[len(tab.Rows)-1].Cells[0]
	if last < 3*first {
		t.Errorf("aggregation should multiply throughput: %.1f → %.1f", first, last)
	}
}

func TestAblationRqPreventsReordering(t *testing.T) {
	tab := quickTable(t, "ablation-rq")
	onRe, _ := tab.Cell("Rq on", "reorder %")
	offRe, _ := tab.Cell("Rq off", "reorder %")
	if onRe > 1 {
		t.Errorf("Rq on: reorder = %.2f%%, want ≈0", onRe)
	}
	if offRe < 5 {
		t.Errorf("Rq off: reorder = %.2f%%, want substantial (Remark 6)", offRe)
	}
	onT, _ := tab.Cell("Rq on", "Mbps")
	offT, _ := tab.Cell("Rq off", "Mbps")
	if onT <= offT {
		t.Errorf("Rq must help TCP: on %.1f vs off %.1f", onT, offT)
	}
}

func TestAblationTwoWayMatters(t *testing.T) {
	tab := quickTable(t, "ablation-twoway")
	two, _ := tab.Cell("two-way", "R")
	one, _ := tab.Cell("one-way", "R")
	if two < 2*one {
		t.Errorf("two-way aggregation should dominate: %.1f vs %.1f", two, one)
	}
}

func TestAblationDeferBeatsStrict(t *testing.T) {
	tab := quickTable(t, "ablation-defer")
	d, _ := tab.Cell("4 hidden", "defer")
	s, _ := tab.Cell("4 hidden", "strict")
	if d < 2*s {
		t.Errorf("deferral should far outperform strict under interference: %.2f vs %.2f", d, s)
	}
	// Without interference the two variants must be close.
	d0, _ := tab.Cell("0 hidden", "defer")
	s0, _ := tab.Cell("0 hidden", "strict")
	if d0 < s0*0.8 || d0 > s0*1.2 {
		t.Errorf("defer/strict should tie on a quiet channel: %.1f vs %.1f", d0, s0)
	}
}

func TestAblationMultiRateHelps(t *testing.T) {
	tab := quickTable(t, "ablation-multirate")
	for _, col := range []string{"DCF", "RIPPLE"} {
		fixed, _ := tab.Cell("fixed 6 Mbps", col)
		multi, _ := tab.Cell("multi-rate", col)
		if multi < fixed*1.5 {
			t.Errorf("%s: multi-rate %.2f vs fixed %.2f, want ≥1.5×", col, multi, fixed)
		}
	}
}

func TestAblationETXRoutesRun(t *testing.T) {
	tab := quickTable(t, "ablation-etx")
	if len(tab.Rows) != 2 || len(tab.Rows[0].Cells) != 2 {
		t.Fatalf("unexpected table shape: %+v", tab)
	}
	for _, r := range tab.Rows {
		for i, v := range r.Cells {
			if v <= 0 {
				t.Errorf("%s/%s delivered nothing", r.Label, tab.Columns[i])
			}
		}
	}
}

func TestAblationsRegistered(t *testing.T) {
	names := map[string]bool{}
	for _, r := range Ablations() {
		if names[r.Name] {
			t.Errorf("duplicate ablation %s", r.Name)
		}
		names[r.Name] = true
		if r.Run == nil {
			t.Errorf("ablation %s has nil runner", r.Name)
		}
	}
	for _, want := range []string{"ablation-agg", "ablation-fwd", "ablation-rq",
		"ablation-twoway", "ablation-defer", "ablation-multirate", "ablation-rts", "ablation-etx"} {
		if !names[want] {
			t.Errorf("missing ablation %s", want)
		}
	}
}
