package sim

import (
	"slices"
	"testing"

	"resourcecentral/internal/cluster"
	"resourcecentral/internal/obs"
	"resourcecentral/internal/trace"
)

// TestRunInstrumented checks the simulation reports arrival/placement
// counters, rule-evaluation counts, a placement rate, and the replay's
// duration and evaluation count, all labeled by policy (plus the run
// label when set).
func TestRunInstrumented(t *testing.T) {
	tr := loadTrace(t)
	reg := obs.NewRegistry()
	res, err := Run(tr, Config{
		Cluster:  clusterConfig(cluster.Baseline, 2000),
		Obs:      reg,
		RunLabel: "unit",
	})
	if err != nil {
		t.Fatal(err)
	}

	values := map[string]map[string]float64{}
	for _, fam := range reg.Gather() {
		values[fam.Name] = map[string]float64{}
		for _, s := range fam.Samples {
			sig := ""
			for _, l := range s.Labels {
				sig += l.Key + "=" + l.Value + ";"
			}
			values[fam.Name][sig] = s.Value
		}
	}

	run := "policy=baseline;run=unit;"
	if got := values["rc_sim_arrivals_total"][run]; got != float64(res.Arrivals) {
		t.Errorf("arrivals metric = %g, want %d", got, res.Arrivals)
	}
	if got := values["rc_sim_placements_total"][run]; got != float64(res.Placed) {
		t.Errorf("placements metric = %g, want %d", got, res.Placed)
	}
	if got := values["rc_sim_failures_total"][run]; got != float64(res.Failures) {
		t.Errorf("failures metric = %g, want %d", got, res.Failures)
	}
	// Every Schedule call evaluates the admission rule; spread and
	// packing only run when candidates exist (all of them here, since
	// nothing failed).
	if got := values["rc_sim_rule_evaluations_total"][run+"rule=admission;"]; got != float64(res.Arrivals) {
		t.Errorf("admission evaluations = %g, want %d", got, res.Arrivals)
	}
	if got := values["rc_sim_rule_evaluations_total"][run+"rule=packing;"]; got != float64(res.Placed) {
		t.Errorf("packing evaluations = %g, want %d", got, res.Placed)
	}
	if got := values["rc_sim_placements_per_second"][run]; got <= 0 {
		t.Errorf("placements/sec = %g, want > 0", got)
	}
	if snap, ok := reg.Snapshot("rc_sim_run_seconds", "policy", "baseline", "run", "unit"); !ok || snap.Count != 1 {
		t.Errorf("run_seconds count = %d (ok=%v)", snap.Count, ok)
	}
	// The run's placement phase ends before its one replay starts; the
	// replay evaluates every placed VM once per interval it fully
	// occupies (nothing failed, and the trace is sorted by creation).
	if snap, ok := reg.Snapshot("rc_sim_replay_seconds", "policy", "baseline", "run", "unit"); !ok || snap.Count != 1 {
		t.Errorf("replay_seconds count = %d (ok=%v)", snap.Count, ok)
	}
	if res.Failures != 0 {
		t.Fatalf("%d failures; the eval count below assumes every VM placed", res.Failures)
	}
	intervals := tr.Horizon / trace.ReadingIntervalMin
	var want float64
	for i := range tr.VMs {
		v := &tr.VMs[i]
		start := min(alignUp(v.Created)/trace.ReadingIntervalMin, intervals)
		want += float64(max(min(v.Deleted, tr.Horizon)/trace.ReadingIntervalMin-start, 0))
	}
	if got := values["rc_sim_util_evals_total"][run]; got != want {
		t.Errorf("util evals = %g, want %g", got, want)
	}
	var names []string
	reg.OnSpanEnd(func(ev obs.SpanEvent) { names = append(names, ev.Name) })
	if _, err := Run(tr, Config{Cluster: clusterConfig(cluster.Baseline, 2000), Obs: reg}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(names, []string{"sim.run", "sim.replay"}) {
		t.Errorf("spans = %q, want sim.run then sim.replay", names)
	}
}

// TestRunUninstrumented ensures a nil registry stays the fast path.
func TestRunUninstrumented(t *testing.T) {
	tr := loadTrace(t)
	if _, err := Run(tr, Config{Cluster: clusterConfig(cluster.Baseline, 2000)}); err != nil {
		t.Fatal(err)
	}
}
