package main

import (
	"fmt"
	"os"
	"time"

	"resourcecentral/internal/cluster"
	"resourcecentral/internal/obs"
	"resourcecentral/internal/sim"
	"resourcecentral/internal/trace"
)

// sweepPoint is one configuration of the 14-point `rcsched -sweep all`
// grid, with its seed-1 outcome from EXPERIMENTS.md Section 6.2.
type sweepPoint struct {
	name     string
	policy   cluster.Policy
	pred     string // "", "rc", "oracle" or "wrong"
	mutate   func(*sim.Config)
	failures int // seed 1
	above100 int // seed 1: readings > 100%
}

var sweepGrid = []sweepPoint{
	{"baseline", cluster.Baseline, "", nil, 102, 0},
	{"naive", cluster.Naive, "", nil, 47, 5},
	{"rc-informed-soft", cluster.RCSoft, "rc", nil, 34, 0},
	{"rc-informed-hard", cluster.RCHard, "rc", nil, 125, 0},
	{"rc-soft-right", cluster.RCSoft, "oracle", nil, 45, 0},
	{"rc-soft-wrong", cluster.RCSoft, "wrong", nil, 53, 0},
	{"oversub-125", cluster.RCSoft, "rc", func(c *sim.Config) { c.Cluster.MaxOversub = 1.25 }, 34, 0},
	{"oversub-120", cluster.RCSoft, "rc", func(c *sim.Config) { c.Cluster.MaxOversub = 1.20 }, 162, 0},
	{"oversub-115", cluster.RCSoft, "rc", func(c *sim.Config) { c.Cluster.MaxOversub = 1.15 }, 228, 0},
	{"maxutil-100", cluster.RCSoft, "rc", func(c *sim.Config) { c.Cluster.MaxUtil = 1.0 }, 34, 0},
	{"maxutil-90", cluster.RCSoft, "rc", func(c *sim.Config) { c.Cluster.MaxUtil = 0.9 }, 76, 0},
	{"maxutil-80", cluster.RCSoft, "rc", func(c *sim.Config) { c.Cluster.MaxUtil = 0.8 }, 49, 0},
	{"highutil-rc-informed-soft", cluster.RCSoft, "rc", highUtil, 52, 23464},
	{"highutil-rc-informed-hard", cluster.RCHard, "rc", highUtil, 146, 23464},
}

func highUtil(c *sim.Config) {
	c.UtilScale = 1.25
	c.BucketShift = 1
}

// The Section 6.2 cluster at the load point where the baseline fails
// about 0.5% (EXPERIMENTS.md).
const (
	sweepServers = 290
	sweepCores   = 16
	sweepMemGB   = 112
	sweepMaxOver = 1.25
	sweepMaxUtil = 1.0
)

// sweepConfigs builds the grid's simulator configurations, predicting
// with dep's client as cmd/rcsched does.
func sweepConfigs(dep *deployed, horizon trace.Minutes, reg *obs.Registry) []sim.Config {
	preds := map[string]sim.Predictor{
		"rc":     &sim.ClientPredictor{Client: dep.client},
		"oracle": &sim.OraclePredictor{Horizon: horizon},
		"wrong":  &sim.WrongPredictor{Horizon: horizon},
	}
	cfgs := make([]sim.Config, len(sweepGrid))
	for i, p := range sweepGrid {
		cfg := sim.Config{
			Cluster: cluster.Config{
				Servers: sweepServers, CoresPerServer: sweepCores, MemGBPerServer: sweepMemGB,
				MaxOversub: sweepMaxOver, MaxUtil: sweepMaxUtil, Policy: p.policy,
			},
			RunLabel: p.name,
			Obs:      reg,
		}
		if p.pred != "" {
			cfg.Predictor = preds[p.pred]
		}
		if p.mutate != nil {
			p.mutate(&cfg)
		}
		cfgs[i] = cfg
	}
	return cfgs
}

// sweepMinPasses is the fewest sweeps a run times, however short
// --seconds is; op_ms and op_cpu_ms are those of the fastest.
const sweepMinPasses = 2

// runSweep measures the 14-point Section 6.2 grid with the RC client
// predictor: sim.RunSweepColumns, as `rcsched -sweep all` runs it.
func runSweep(b *bench) error {
	var rec *spanRecorder
	var reg *obs.Registry
	if b.traced {
		rec = newSpanRecorder()
		b.spans = rec
		reg = obs.NewRegistry()
		rec.collect(reg)
	}
	var (
		cols *trace.Columns
		dep  *deployed
		accs []float64
	)
	if err := timeSetup(b, func() error {
		if dep != nil {
			dep.client.Close()
			dep = nil
		}
		var err error
		if cols, dep, err = b.deployTrace(reg); err != nil {
			return err
		}
		accs = append(accs, dep.acc)
		return nil
	}); err != nil {
		return err
	}
	defer dep.client.Close()
	if b.traced {
		return b.sweepTraced(rec, reg, cols, dep)
	}

	cfgs := sweepConfigs(dep, cols.Horizon, nil)
	var durs, cpus []float64
	var first []*sim.Result
	deadline := time.Now().Add(b.seconds)
	for len(durs) < sweepMinPasses || time.Now().Before(deadline) {
		cpu0 := cpuTime()
		start := time.Now()
		res, err := sim.RunSweepColumns(cols, cfgs, sim.SweepOptions{})
		durs = append(durs, time.Since(start).Seconds())
		cpus = append(cpus, (cpuTime() - cpu0).Seconds())
		if b.op("sim.RunSweepColumns", err) != nil {
			return err
		}
		b.noteHeap()
		if first == nil {
			first = res.Results
			continue
		}
		for i, r := range res.Results {
			b.check("sweep repeats "+sweepGrid[i].name, *r == *first[i], "result %+v, first run %+v", *r, *first[i])
		}
	}
	if b.seed == 1 {
		for i, p := range sweepGrid {
			r := first[i]
			b.check("sweep seed 1 "+p.name, r.Failures == p.failures && r.ReadingsAbove100 == p.above100,
				"%d failures, %d readings >100%%; EXPERIMENTS.md has %d, %d", r.Failures, r.ReadingsAbove100, p.failures, p.above100)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: sweeps %.3f s, CPU %.3f s\n", durs, cpus)
	b.metric("op_ms", 1e3*minimum(durs), "ms")
	b.metric("op_cpu_ms", 1e3*minimum(cpus), "ms")
	b.reportAcc(accs, deployAccSeed1)
	return nil
}

// sweepTraced times the grid's points serially, once untraced and once
// traced with the simulator's obs registry, and reports the per-layer
// metrics.
func (b *bench) sweepTraced(rec *spanRecorder, reg *obs.Registry, cols *trace.Columns, dep *deployed) error {
	b.spans = nil
	a0 := allocBytes()
	start := time.Now()
	for _, cfg := range sweepConfigs(dep, cols.Horizon, nil) {
		if _, err := b.call("sim.RunColumns", "sim", 0, func() error {
			_, err := sim.RunColumns(cols, cfg)
			return err
		}); err != nil {
			return err
		}
	}
	refD := time.Since(start)
	b.metric("alloc_mb", (allocBytes()-a0)/(1<<20), "MB")

	b.spans = rec
	before := snapshotCounters(reg)
	path, err := b.outPath("cpu", "pprof")
	if err != nil {
		return err
	}
	prof, err := startProfiler()
	if err != nil {
		return err
	}
	root := rec.begin("sweep", "bench", 0)
	start = time.Now()
	for i, cfg := range sweepConfigs(dep, cols.Horizon, reg) {
		d, err := b.call("sim.RunColumns."+sweepGrid[i].name, "sim", root, func() error {
			_, err := sim.RunColumns(cols, cfg)
			return err
		})
		if err != nil {
			prof.abort()
			return err
		}
		b.detail("sim.run_s."+sweepGrid[i].name, d.Seconds(), "s")
	}
	d := time.Since(start)
	rec.end(root)
	if err := prof.stop(b, path); err != nil {
		return err
	}
	b.metric("trace_overhead", d.Seconds()/refD.Seconds(), "ratio")
	b.deployMetrics(rec, reg, dep)
	b.passMetrics(snapshotCounters(reg).sub(before))
	b.genMetrics(nil, 0)
	fmt.Fprintf(os.Stderr, "perfbench: traced serial sweep %.2f s, untraced %.2f s\n", d.Seconds(), refD.Seconds())
	return b.finishTrace(root)
}
