package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"resourcecentral/internal/cluster"
	"resourcecentral/internal/obs"
	"resourcecentral/internal/trace"
)

func sweepGrid(tr *trace.Trace) []Config {
	oracle := &OraclePredictor{Horizon: tr.Horizon}
	return []Config{
		{Cluster: clusterConfig(cluster.Baseline, 90)},
		{Cluster: clusterConfig(cluster.Naive, 90)},
		{Cluster: clusterConfig(cluster.RCHard, 90), Predictor: oracle},
		{Cluster: clusterConfig(cluster.RCSoft, 90), Predictor: oracle},
		{Cluster: clusterConfig(cluster.RCSoft, 90), Predictor: oracle, UtilScale: 1.25},
		{Cluster: clusterConfig(cluster.RCSoft, 90), Predictor: oracle, BucketShift: 1},
	}
}

// TestRunSweepMatchesSequential proves the parallel sweep returns exactly
// the results sequential Run calls produce, in input order, for any
// worker count.
func TestRunSweepMatchesSequential(t *testing.T) {
	tr := loadTrace(t)
	grid := sweepGrid(tr)
	want := make([]*Result, len(grid))
	for i, cfg := range grid {
		r, err := Run(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	for _, workers := range []int{1, 2, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, err := RunSweep(tr, sweepGrid(tr), SweepOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Results, want) {
				t.Errorf("sweep results diverge from sequential runs")
			}
			if got.Metrics != nil {
				t.Errorf("metrics collected without CollectObs")
			}
		})
	}
}

// TestRunSweepMergedMetrics checks per-point registries merge into one
// labeled snapshot where no point clobbers another.
func TestRunSweepMergedMetrics(t *testing.T) {
	tr := loadTrace(t)
	grid := sweepGrid(tr)
	got, err := RunSweep(tr, grid, SweepOptions{Workers: 4, CollectObs: true})
	if err != nil {
		t.Fatal(err)
	}
	var placed []obs.Sample
	for _, fam := range got.Metrics {
		if fam.Name == "rc_sim_placements_total" {
			placed = fam.Samples
		}
	}
	if len(placed) != len(grid) {
		t.Fatalf("placements samples = %d, want one per point", len(placed))
	}
	byRun := map[string]float64{}
	for _, s := range placed {
		var run string
		for _, l := range s.Labels {
			if l.Key == "run" {
				run = l.Value
			}
		}
		byRun[run] = s.Value
	}
	for i, r := range got.Results {
		label := fmt.Sprintf("point%d", i)
		if v, ok := byRun[label]; !ok || v != float64(r.Placed) {
			t.Errorf("%s: metric %g, want %d placements", label, v, r.Placed)
		}
	}
}

// TestRunSweepPointsConcurrency proves the sweep fan-out actually runs
// points concurrently: with two workers, two placements must be in
// flight at the same time. This is the property bench numbers cannot
// show on a single-core host — there GOMAXPROCS=1 timeshares the
// goroutines and every worker count measures the same serial work, so
// the engagement proof lives here instead of in BenchmarkSimSweep.
func TestRunSweepPointsConcurrency(t *testing.T) {
	const points = 4
	arrived := make(chan int, points)
	proceed := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := runSweepPoints(make([]Config, points), SweepOptions{Workers: 2}, nil,
			func(Config) (*placement, error) {
				arrived <- 1
				<-proceed
				return nil, errors.New("placement withheld")
			})
		done <- err
	}()
	// Two workers must both enter placeOne before either is released; a
	// serial pool would hold the second point back until the first
	// finishes, so bound the wait.
	for i := 0; i < 2; i++ {
		select {
		case <-arrived:
		case <-time.After(10 * time.Second):
			t.Fatal("sweep ran points serially: second worker never entered placeOne")
		}
	}
	close(proceed)
	if err := <-done; err == nil {
		t.Fatal("want the withheld placements reported")
	}
}

// TestRunSweepPartialFailure: a bad point reports its error without
// aborting the healthy points, and is left out of the shared replay —
// the points around it still match sequential runs exactly.
func TestRunSweepPartialFailure(t *testing.T) {
	tr := loadTrace(t)
	grid := []Config{
		{Cluster: clusterConfig(cluster.Baseline, 90)},
		{Cluster: cluster.Config{}}, // invalid
		{Cluster: clusterConfig(cluster.RCSoft, 90), Predictor: fixedPredictor{bucket: 1}, UtilScale: 1.25},
	}
	cols := trace.FromTrace(tr)
	sweeps := map[string]func() (*SweepResult, error){
		"RunSweep":        func() (*SweepResult, error) { return RunSweep(tr, grid, SweepOptions{Workers: 2}) },
		"RunSweepColumns": func() (*SweepResult, error) { return RunSweepColumns(cols, grid, SweepOptions{Workers: 2}) },
	}
	for _, name := range []string{"RunSweep", "RunSweepColumns"} {
		got, err := sweeps[name]()
		if err == nil {
			t.Fatalf("%s: expected error from invalid point", name)
		}
		if got.Results[0] == nil || got.Results[1] != nil || got.Results[2] == nil {
			t.Fatalf("%s: results = %v, want [ok, nil, ok]", name, got.Results)
		}
		for _, i := range []int{0, 2} {
			want, err := RunColumns(cols, grid[i])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Results[i], want) {
				t.Errorf("%s point %d:\n got %+v\nwant %+v", name, i, got.Results[i], want)
			}
		}
	}
}

// TestSweepReplayEvaluatesUnionOnce: a 14-point sweep evaluates the
// utilization model once per (VM, interval) that any point placed — the
// union of the points' placed VM-intervals — not once per point.
func TestSweepReplayEvaluatesUnionOnce(t *testing.T) {
	tr := loadTrace(t)
	var grid []Config
	for _, policy := range []cluster.Policy{cluster.Baseline, cluster.Naive, cluster.RCHard, cluster.RCSoft} {
		for _, oversub := range []float64{1.0, 1.25} {
			cc := clusterConfig(policy, 70)
			cc.MaxOversub = oversub
			cfg := Config{Cluster: cc}
			if policy == cluster.RCHard || policy == cluster.RCSoft {
				cfg.Predictor = fixedPredictor{bucket: 1}
			}
			grid = append(grid, cfg)
		}
	}
	for _, scale := range []float64{1.1, 1.25, 1.5} {
		for _, shift := range []int{0, 1} {
			grid = append(grid, Config{Cluster: clusterConfig(cluster.RCSoft, 70),
				Predictor: fixedPredictor{bucket: 1}, UtilScale: scale, BucketShift: shift})
		}
	}
	if len(grid) != 14 {
		t.Fatalf("grid has %d points, want 14", len(grid))
	}

	// The union from the placement logs: every point shares a VM's end,
	// so its placed intervals are [earliest first interval, end).
	src := newRowSource(tr)
	intervals := int32(tr.Horizon / trace.ReadingIntervalMin)
	first := make([]int32, len(tr.VMs))
	for i := range first {
		first[i] = intervals
	}
	var perPoint uint64
	for _, cfg := range grid {
		p, err := place(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if p.res.Failures == 0 {
			t.Errorf("%v: no failures; the grid should differ in what it places", cfg.Cluster.Policy)
		}
		for i, rec := range p.log {
			if rec.server >= 0 {
				first[i] = min(first[i], rec.first)
				perPoint += uint64(max(vmEnd(&tr.VMs[i], tr.Horizon)-rec.first, 0))
			}
		}
	}
	var union uint64
	for i := range tr.VMs {
		union += uint64(max(vmEnd(&tr.VMs[i], tr.Horizon)-first[i], 0))
	}

	got, err := RunSweep(tr, grid, SweepOptions{Workers: 2, CollectObs: true})
	if err != nil {
		t.Fatal(err)
	}
	var evals []obs.Sample
	for _, fam := range got.Metrics {
		if fam.Name == "rc_sim_util_evals_total" {
			evals = fam.Samples
		}
	}
	if len(evals) != 1 || len(evals[0].Labels) != 1 || evals[0].Labels[0] != (obs.Label{Key: "run", Value: "sweep"}) {
		t.Fatalf("util evals samples = %+v, want one labeled run=sweep", evals)
	}
	if n := uint64(evals[0].Value); n != union {
		t.Errorf("sweep evaluated %d (VM, interval) pairs, want the union %d (per-point sum %d)", n, union, perPoint)
	}
	if union*4 > perPoint {
		t.Errorf("union %d vs per-point sum %d: the points barely overlap, the test proves nothing", union, perPoint)
	}
	var replays uint64
	for _, fam := range got.Metrics {
		if fam.Name == "rc_sim_replay_seconds" {
			for _, s := range fam.Samples {
				replays += s.Histogram.Count
			}
		}
	}
	if replays != 1 {
		t.Errorf("replay histogram observed %d replays, want 1", replays)
	}
}

// vmEnd is the first interval v no longer fully occupies within horizon.
func vmEnd(v *trace.VM, horizon trace.Minutes) int32 {
	return int32(max(min(v.Deleted, horizon), 0) / trace.ReadingIntervalMin)
}
