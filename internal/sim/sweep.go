package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"resourcecentral/internal/obs"
	"resourcecentral/internal/trace"
)

// SweepOptions tunes RunSweep.
type SweepOptions struct {
	// Workers caps concurrent simulation runs; <= 0 uses GOMAXPROCS.
	Workers int
	// CollectObs gives every point without a registry its own, and merges
	// all per-point registries into SweepResult.Metrics.
	CollectObs bool
}

// SweepResult is the outcome of one sweep.
type SweepResult struct {
	// Results holds one entry per input config, in input order; entries
	// whose run failed are nil (and the error is reported by RunSweep).
	Results []*Result
	// Metrics is the merged snapshot of every per-point registry (nil
	// unless CollectObs was set or configs carried registries).
	Metrics []obs.Family
}

// RunSweep replays the trace against every config — the Fig. 11 policy
// grid and the sensitivity studies. Each point places the trace on a
// fresh cluster, concurrently with the others; then one shared replay
// derives every point's utilization statistics, evaluating each
// (VM, interval) once however many points placed the VM. Points missing
// a RunLabel get "point<i>" so their metrics stay distinguishable after
// the merge. Run errors don't abort the sweep; they are joined into the
// returned error while the remaining points complete, and a failed point
// is left out of the replay. The initial-wave sizes are computed once
// and shared read-only across all points.
func RunSweep(tr *trace.Trace, cfgs []Config, opt SweepOptions) (*SweepResult, error) {
	if len(tr.VMs) == 0 {
		return runSweepPoints(cfgs, opt, nil, func(Config) (*placement, error) {
			return nil, errors.New("sim: empty trace")
		})
	}
	src := newRowSource(tr) // stateless per run; safe to share across points
	return runSweepPoints(cfgs, opt, src, func(cfg Config) (*placement, error) {
		return place(src, cfg)
	})
}

// RunSweepColumns is RunSweep over a columnar trace: every point places
// the shared chunks with the wave sizes computed once per sweep, and the
// replay rereads them once. Each point gets its own arrival pool (the
// pool is the only per-point source state), so points stay independent
// while the underlying columns are shared read-only. Memory beyond the
// clusters is the placement logs — 8 bytes per arrival per point — and
// the replay's set of live VMs.
func RunSweepColumns(c *trace.Columns, cfgs []Config, opt SweepOptions) (*SweepResult, error) {
	if c.Len() == 0 {
		return runSweepPoints(cfgs, opt, nil, func(Config) (*placement, error) {
			return nil, errors.New("sim: empty trace")
		})
	}
	waves := countInitialWavesColumns(c)
	return runSweepPoints(cfgs, opt, newColSource(c, waves), func(cfg Config) (*placement, error) {
		return place(newColSource(c, waves), cfg)
	})
}

// runSweepPoints is the sweep scaffolding shared by the row and
// columnar entry points: label/registry defaulting, the worker pool
// that places the points, the shared replay over src of every placed
// point, and the deterministic metric merge. placeOne places a single
// point and must be safe for concurrent calls.
func runSweepPoints(cfgs []Config, opt SweepOptions, src arrivalSource, placeOne func(Config) (*placement, error)) (*SweepResult, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}

	points := make([]Config, len(cfgs))
	for i, cfg := range cfgs {
		if cfg.RunLabel == "" {
			cfg.RunLabel = fmt.Sprintf("point%d", i)
		}
		if cfg.Obs == nil && opt.CollectObs {
			cfg.Obs = obs.NewRegistry()
		}
		points[i] = cfg
	}

	placed := make([]*placement, len(points))
	errs := make([]error, len(points))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(points) {
					return
				}
				p, err := placeOne(points[i])
				if err != nil {
					errs[i] = fmt.Errorf("sweep point %q: %w", points[i].RunLabel, err)
					continue
				}
				placed[i] = p
			}
		}()
	}
	wg.Wait()

	res := &SweepResult{Results: make([]*Result, len(points))}
	var ok []*placement
	for _, p := range placed {
		if p != nil {
			ok = append(ok, p)
		}
	}
	if len(ok) > 0 {
		replay(src, ok)
	}
	for i, p := range placed {
		if p != nil {
			res.Results[i] = p.res
		}
	}

	// Merge per-point registries in point order so the snapshot is
	// deterministic; a registry shared by several points contributes once.
	var snaps [][]obs.Family
	seen := map[*obs.Registry]bool{}
	for _, cfg := range points {
		if cfg.Obs == nil || seen[cfg.Obs] {
			continue
		}
		seen[cfg.Obs] = true
		snaps = append(snaps, cfg.Obs.Gather())
	}
	merged, err := obs.MergeFamilies(snaps...)
	if err != nil {
		errs = append(errs, err)
	}
	res.Metrics = merged
	return res, errors.Join(errs...)
}
