package radio

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"ripple/internal/israce"
)

// TestRowChunksMatchSerial is the chunked row builder's equivalence bar: a
// plan built, or rebuilt epoch after epoch, with its rows split into k
// chunks on k goroutines must equal the serial build array for array. The
// chunk count is passed directly, so the floor that keeps small plans serial
// does not apply, and k = 3 and 5 put chunk boundaries where no GOMAXPROCS
// of the machine would. Under -race it also checks that chunks write only
// their own windows.
func TestRowChunksMatchSerial(t *testing.T) {
	scattered := randomCity(600, 5000, 17)
	for _, k := range []int{1, 2, 3, 5} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			cfg, initial, step := mobileCity(600, 3000, 31)
			plansEqual(t, newLinkPlan(cfg, scattered, 1), newLinkPlan(cfg, scattered, k))

			serial, chunked := newLinkPlan(cfg, initial, 1), newLinkPlan(cfg, initial, k)
			plansEqual(t, serial, chunked)
			// Three epochs: two patch a few movers' rows, the third moves
			// more than a quarter and falls back to a full build.
			for epoch, frac := range []float64{0.05, 0.15, 0.5} {
				positions := step(epoch, frac)
				serial, chunked = serial.rebuild(positions, 1), chunked.rebuild(positions, k)
				plansEqual(t, serial, chunked)
			}
		})
	}
}

// TestRowChunksPanicOnCaller: a row that outgrows its bound, or panics, on
// any chunk must panic buildRows' caller — the overflow instead of a plan
// silently built from stale links, the row's panic with the chunk
// goroutine's stack instead of a dead process.
func TestRowChunksPanicOnCaller(t *testing.T) {
	bound := []int32{2, 2, 2, 2, 2, 2}
	for _, tc := range []struct {
		name string
		row  func(v *LinkPlan, i int)
		want string
	}{
		{"overflow", func(v *LinkPlan, i int) {
			k := 2
			if i == 4 {
				k = 3
			}
			for range k {
				v.ids = append(v.ids, int32(i))
			}
			v.off[i+1] = int64(len(v.ids))
		}, "rows [3, 6) hold 7 links, over their bound of 6"},
		{"panic", func(v *LinkPlan, i int) {
			if i == 5 {
				panic("row 5")
			}
		}, "row 5"},
	} {
		for _, k := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/k=%d", tc.name, k), func(t *testing.T) {
				want := tc.want
				if k == 1 && tc.name == "overflow" {
					want = "rows [0, 6) hold 13 links, over their bound of 12"
				}
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, want) {
						t.Fatalf("recovered %q, want %q", msg, want)
					}
					if tc.name == "panic" && !strings.Contains(msg, "buildRows") {
						t.Fatalf("recovered %q, want the chunk's stack", msg)
					}
				}()
				pl := &LinkPlan{n: len(bound), off: make([]int64, len(bound)+1)}
				pl.buildRows(bound, k, tc.row)
				t.Fatal("buildRows returned")
			})
		}
	}
}

// TestRowChunksAllocateNoCopy holds the chunked build to the serial build's
// memory: chunks append into windows of the one presized array and close
// the gaps in place, so splitting the rows in two adds a goroutine, never
// a second link array. A design that built
// chunks apart and copied them out would read about double.
func TestRowChunksAllocateNoCopy(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector allocates per goroutine")
	}
	cfg, initial, step := mobileCity(2000, 6000, 41)
	moved := step(0, 0.05)
	base := NewLinkPlan(cfg, initial)
	bytes := func(build func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, tc := range []struct {
		name  string
		build func(k int) *LinkPlan
	}{
		{"NewLinkPlan", func(k int) *LinkPlan { return newLinkPlan(cfg, initial, k) }},
		{"Rebuild", func(k int) *LinkPlan { return base.rebuild(moved, k) }},
	} {
		var pl *LinkPlan
		one := bytes(func() { pl = tc.build(1) })
		two := bytes(func() { pl = tc.build(2) })
		if pl.Links() < rowChunkFloor {
			t.Fatalf("%s: %d links, under the %d-link floor: the case is too small", tc.name, pl.Links(), rowChunkFloor)
		}
		if float64(two) > 1.01*float64(one) {
			t.Errorf("%s: k=2 allocated %d bytes, k=1 %d: more than 1 %% over", tc.name, two, one)
		} else {
			t.Logf("%s: k=2 allocated %d bytes, k=1 %d", tc.name, two, one)
		}
	}
}
