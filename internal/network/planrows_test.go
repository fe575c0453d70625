package network

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"ripple/internal/radio"
	"ripple/internal/sim"
)

// rowsDigest is the sha256 of every decoded row of plan, row by row: the
// row's length and then its neighbour IDs in the order the plan yields
// them, each as a little-endian uint32.
func rowsDigest(plan *radio.LinkPlan) string {
	h := sha256.New()
	var row []byte
	for a := range plan.Stations() {
		row = row[:0]
		n := 0
		plan.EachAscNeighbor(a, func(j int32, _ float64) {
			row = binary.LittleEndian.AppendUint32(row, uint32(j))
			n++
		})
		h.Write(binary.LittleEndian.AppendUint32(nil, uint32(n)))
		h.Write(row)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestLinkPlanRowsPinned pins who hears whom in the ten link plans of the
// 200-station bench city over five seconds — the root plan and nine epoch
// plans, built and patched — and in a dense plan over the same stations:
// each plan's decoded rows by digest and its link count. Any change to how
// a plan stores its rows must leave every line alone.
func TestLinkPlanRowsPinned(t *testing.T) {
	cfg := cityBenchConfig(true, 5*sim.Second)
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plans := []*radio.LinkPlan{w.plan}
	for _, ew := range w.epochs {
		plans = append(plans, ew.plan)
	}
	dense := cfg.Radio
	dense.PruneSigma = 0
	plans = append(plans, radio.NewLinkPlan(dense, cfg.Positions))
	want := []struct {
		links  int
		digest string
	}{
		{30226, "d3b623850bd9bccfd93218f10be4fd8319a989759408d03508acecde5a26869d"},
		{30854, "2a4e410d13801d4a141beb083531831b20fea2dfd00230c226ada39339de8d03"},
		{31132, "f29faffae78dba39710b6044abc6d5617c9885ba7623ffc02fab067b00761ab0"},
		{31822, "696d267cf3064d4871c7b319270ba2578558d90da59f7164c23fd5d814565679"},
		{32074, "696b038bee1b77ba034457251834281748c9b099e28fdb7b3c11215c98e38bf3"},
		{32426, "31f8824c99a4af602bfdcff1bd53b32affc037b3ec04a8b6cc9a262836b3ddf1"},
		{32384, "67555f50fe4d32ae67490ca67ead0a48896a35a94676e7ba58b367ca250edd7f"},
		{32374, "e5414771f9a7f1b58f8ee626966cc4c1dd56f68776627a803e0b384e4a1212a3"},
		{32594, "fb7a053e3c964c705611f954a67a7a5a87299c444dc6ab04f45e406076fbeba3"},
		{32784, "2d3cc2d02a71eeebbde80cf1878e310a7a37e591aa2b8b403880e93efcda8b64"},
		{43890, "11218a69ef7d5a31e84b8b61d2472d621728dd73b404bf7ae7a0fe33b6ac84ba"},
	}
	if len(plans) != len(want) {
		t.Fatalf("%d plans, %d pinned", len(plans), len(want))
	}
	for k, pl := range plans {
		if got := rowsDigest(pl); pl.Links() != want[k].links || got != want[k].digest {
			t.Errorf("plan %d: %d links, rows %s; pinned %d, %s", k, pl.Links(), got, want[k].links, want[k].digest)
		}
	}
}

// TestCityLinkPlanBytesPerLink holds the benchmark's 2000-station city to
// the bytes per stored link its ten link plans measure together over five
// seconds (1.0064), rounded up to the third decimal. It is the layout the
// benchmark runs: its stations are numbered along the rows of a grid, so
// most rows' first ID lies 128 or more above 0 and costs a two-byte gap,
// where random layouts read 1.000 (internal/radio's
// TestLinkPlanBytesPerLink). Bytes are counted as that test counts them:
// element size × capacity of every slice field longer than the plan's
// per-station arrays, whatever its name and element type.
func TestCityLinkPlanBytesPerLink(t *testing.T) {
	w, err := BuildWorld(cityBenchConfig(false, 5*sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	plans := []*radio.LinkPlan{w.plan}
	for _, ew := range w.epochs {
		plans = append(plans, ew.plan)
	}
	if len(plans) != 10 {
		t.Fatalf("%d plans, want the root and nine epochs", len(plans))
	}
	bytes, links := 0, 0
	for _, pl := range plans {
		v := reflect.ValueOf(pl).Elem()
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Slice && f.Len() > pl.Stations()+1 {
				bytes += f.Cap() * int(f.Type().Elem().Size())
			}
		}
		links += pl.Links()
	}
	const limit = 1.007
	if per := float64(bytes) / float64(links); per > limit {
		t.Errorf("%d links in ten plans: %.5f bytes per stored link, over %.3f", links, per, limit)
	} else {
		t.Logf("%d links in ten plans, %.5f bytes each", links, per)
	}
}
