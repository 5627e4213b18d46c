package sim

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"testing"

	"resourcecentral/internal/trace"
)

// unsortedGolden holds the Results of every equivConfigs point over
// unsortedTrace, at the cluster sizes of unsortedServers, in that order.
// They were captured from the interleaved per-server accumulator that
// preceded the shared replay and are never regenerated: they pin what
// the simulator does when a later arrival starts before its server's
// already-finalized intervals.
const unsortedGolden = "testdata/unsorted_results.json"

var unsortedServers = []int{60, 200}

// unsortedTrace is a copy of loadTrace's trace with arrivals swapped out
// of creation order: every 53rd VM trades places with the VM 3 or 200
// positions later, so the later arrival in trace order is created
// earlier — by minutes or by hours.
func unsortedTrace(t *testing.T) *trace.Trace {
	t.Helper()
	src := loadTrace(t)
	tr := &trace.Trace{Horizon: src.Horizon, VMs: slices.Clone(src.VMs)}
	vms := tr.VMs
	for i, k := 0, 0; i+200 < len(vms); i, k = i+53, k+1 {
		gap := 3
		if k%2 == 1 {
			gap = 200
		}
		vms[i], vms[i+gap] = vms[i+gap], vms[i]
	}
	return tr
}

// TestUnsortedArrivalsGolden: Run, RunColumns and RunSweepColumns all
// reproduce the pinned Results on a trace that is not sorted by
// creation time, where each server's finalized-interval frontier decides
// which intervals a late-listed VM still contributes to.
func TestUnsortedArrivalsGolden(t *testing.T) {
	raw, err := os.ReadFile(unsortedGolden)
	if err != nil {
		t.Fatal(err)
	}
	var golden []*Result
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	tr := unsortedTrace(t)
	cols := trace.FromTrace(tr)
	for si, servers := range unsortedServers {
		cfgs := equivConfigs(tr, servers)
		if len(golden) < (si+1)*len(cfgs) {
			t.Fatalf("golden has %d results, want %d", len(golden), len(unsortedServers)*len(cfgs))
		}
		want := golden[si*len(cfgs) : (si+1)*len(cfgs)]
		for i, cfg := range cfgs {
			name := fmt.Sprintf("servers=%d/cfg=%d", servers, i)
			got, err := Run(tr, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s: Run\n got %+v\nwant %+v", name, got, want[i])
			}
			got, err = RunColumns(cols, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s: RunColumns\n got %+v\nwant %+v", name, got, want[i])
			}
		}
		sw, err := RunSweepColumns(cols, cfgs, SweepOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sw.Results, want) {
			t.Errorf("servers=%d: RunSweepColumns\n got %+v\nwant %+v", servers, sw.Results, want)
		}
	}
}
