package ripple_test

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"ripple"
	"ripple/internal/golden"
)

// mixedCampaign is one campaign that touches every way a scenario can
// differ for the batch layer: a static Fig. 1 scenario that is traced, a
// mobile one and a faulty one, each with its own seed list. trace
// receives the first scenario's trace pass.
func mixedCampaign(trace io.Writer) ripple.Campaign {
	rs := ripple.Route0()
	fig1 := ripple.Scenario{
		Topology: ripple.Fig1Topology(),
		Scheme:   ripple.SchemeRIPPLE,
		Flows: []ripple.Flow{
			{ID: 1, Path: rs.Flow1, Traffic: ripple.FTP{}},
			{ID: 2, Path: rs.Flow2, Traffic: ripple.VoIP{}, Start: 50 * ripple.Millisecond},
			{ID: 3, Path: rs.Flow3, Traffic: ripple.Web{}, Start: 100 * ripple.Millisecond},
		},
		Seeds:      []uint64{1, 2, 3},
		Duration:   300 * ripple.Millisecond,
		TraceJSONL: trace,
	}
	top3, path3 := ripple.LineTopology(3)
	mobile := ripple.Scenario{
		Topology: top3,
		Scheme:   ripple.SchemeMCExOR,
		Flows:    []ripple.Flow{{ID: 1, Path: path3, Traffic: ripple.FTP{}}},
		Seeds:    []uint64{4, 5},
		Duration: 300 * ripple.Millisecond,
		Routing:  ripple.ETXRouting(),
		Mobility: ripple.WaypointMobility().WithEpoch(50*ripple.Millisecond).WithSpeed(5, 30),
	}
	top4, path4 := ripple.LineTopology(4)
	faulty := ripple.Scenario{
		Topology: top4,
		Scheme:   ripple.SchemeAFR,
		Flows:    []ripple.Flow{{ID: 1, Path: path4, Traffic: ripple.CBR{Interval: ripple.Millisecond}}},
		Seeds:    []uint64{7},
		Duration: 500 * ripple.Millisecond,
		Faults: ripple.StationChurn(200*ripple.Millisecond, 100*ripple.Millisecond).
			WithLinkFlaps(2).WithEpoch(50 * ripple.Millisecond).WithSeed(7),
	}
	return ripple.Campaign{Scenarios: []ripple.Scenario{fig1, mobile, faulty}}
}

// mixedPin holds mixedCampaign's []*Result and the summary of its traced
// scenario's JSONL: a change to it is a change to what the public batch API
// computes.
var mixedPin = filepath.Join("testdata", "pins", "mixed_campaign.json")

// TestMixedCampaignPinnedRunBatch: the mixed campaign through RunBatch,
// serial and wide.
func TestMixedCampaignPinnedRunBatch(t *testing.T) {
	for _, parallel := range []int{1, 8} {
		var trace golden.Trace
		c := mixedCampaign(&trace)
		c.Parallel = parallel
		results, err := ripple.RunBatch(c)
		if err != nil {
			t.Fatal(err)
		}
		golden.Check(t, mixedPin, golden.Marshal(t, golden.Pin{Result: results, Trace: trace.Sum()}))
	}
}

// TestMixedCampaignWorkerHelper is the re-exec'd worker program for
// TestMixedCampaignPinnedDistribute (see TestDistributeWorkerHelper).
func TestMixedCampaignWorkerHelper(t *testing.T) {
	if os.Getenv(ripple.WorkerEnv) == "" {
		t.Skip("helper process for TestMixedCampaignPinnedDistribute")
	}
	mixedCampaign(io.Discard).Distribute(ripple.DistributeOptions{}) // never returns
}

// TestMixedCampaignPinnedDistribute: the same campaign leased out to two
// worker processes, trace pass in the coordinator.
func TestMixedCampaignPinnedDistribute(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	var trace golden.Trace
	results, err := mixedCampaign(&trace).Distribute(ripple.DistributeOptions{
		Workers:    2,
		WorkerArgs: []string{"-test.run=TestMixedCampaignWorkerHelper"},
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, mixedPin, golden.Marshal(t, golden.Pin{Result: results, Trace: trace.Sum()}))
}

// TestPins holds the pin directory to its ledger.
func TestPins(t *testing.T) {
	golden.Ledger(t, filepath.Dir(mixedPin))
}
