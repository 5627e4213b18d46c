package sim

import (
	"slices"

	"resourcecentral/internal/obs"
	"resourcecentral/internal/trace"
)

// replay derives the utilization statistics of every placement in ps —
// the sweep's points, or a single run — in one time-ordered pass over
// the union of the VMs they placed. It evaluates each VM's interval
// maximum once per interval, however many points placed it, and adds
// the VM's contribution to the reading of every point's server that
// hosts it: the paper's pessimistic aggregation, each interval maximum
// held for the whole 5-minute window. The VMs being replayed are kept
// in arrival order, so every (point, server, interval) reading sums its
// float32 contributions in placement order; each point's per-server
// statistics fold in interval order and reduce in server-ID order. The
// Results are therefore bit-identical to replaying each point on its own.
//
// Memory is the per-point placement logs (8 bytes per arrival), a
// 4-byte lower bound per arrival, the VMs alive at the current interval,
// and one reading plus one statistics cell per (point, server).
func replay(src arrivalSource, ps []*placement) {
	reg, labels := replayObs(ps)
	span := reg.StartSpan("sim.replay")
	horizon := src.horizon()
	intervals := int32(horizon / trace.ReadingIntervalMin)
	r := newReplayState(ps)

	// lower[i] bounds from below the first interval of every arrival at
	// or after i; a VM may join the replayed set only once the replay has
	// folded every interval before lower[i]. On a trace sorted by
	// creation time it is simply arrival i's first interval.
	n := src.size()
	lower := make([]int32, n+1)
	lower[n] = intervals
	for i := n - 1; i >= 0; i-- {
		lo := lower[i+1]
		for _, p := range ps {
			if rec := p.log[i]; rec.server >= 0 && rec.first < lo {
				lo = rec.first
			}
		}
		lower[i] = lo
	}

	i := 0
	src.scan(func(v *trace.VM) {
		idx := int32(i)
		i++
		// The VM contributes to interval k while k*5+5 <= end: only to
		// intervals it fully occupies. Two VMs that time-share a server
		// slot within one window must not double-count, otherwise even
		// non-oversubscribed servers would read above 100% (the paper's
		// Baseline never does).
		end := int32(max(min(v.Deleted, horizon), 0) / trace.ReadingIntervalMin)
		targets, entry := r.scratch[:0], intervals
		for pi, p := range ps {
			rec := p.log[idx]
			if rec.server < 0 || rec.first >= end {
				continue
			}
			targets = append(targets, replayTarget{
				cell: r.offset[pi] + rec.server, first: rec.first, scale: p.cfg.UtilScale})
			entry = min(entry, rec.first)
		}
		r.scratch = targets
		if len(targets) == 0 {
			return
		}
		r.advance(lower[idx])
		slot := r.alloc()
		r.vms[slot] = replayVM{util: v.Util, cores: float64(v.Cores),
			end: end, idx: idx, entry: entry, targets: int32(len(targets))}
		copy(r.targetsOf(slot), targets)
		r.join(slot)
	})
	r.advance(intervals)

	for pi, p := range ps {
		res := p.res
		var sum float64
		for _, st := range r.stats[r.offset[pi] : int(r.offset[pi])+p.servers] {
			sum += st.sumPct
			res.BusyReadings += st.busy
			res.ReadingsAbove100 += st.above100
			if st.maxPct > res.MaxReadingPct {
				res.MaxReadingPct = st.maxPct
			}
		}
		res.AvgUtilizationPct = sum / float64(p.servers*int(intervals))
	}
	reg.Counter("rc_sim_util_evals_total",
		"Utilization-model evaluations by the replay, one per (VM, interval).", labels...).Add(r.evals)
	span.End(reg.Histogram("rc_sim_replay_seconds",
		"Wall time of one utilization replay.", obs.DefaultDurationBuckets, labels...))
}

// replayObs picks where a replay reports: the first placement's registry
// that has one, labeled like that run when the replay serves a single
// point and as run="sweep" when it serves several.
func replayObs(ps []*placement) (*obs.Registry, []string) {
	for _, p := range ps {
		if p.cfg.Obs == nil {
			continue
		}
		if len(ps) == 1 {
			return p.cfg.Obs, p.runLabels
		}
		return p.cfg.Obs, []string{"run", "sweep"}
	}
	return nil, nil
}

// replayVM is one VM the replay is evaluating. Its utilization model is
// held by value because the columnar source reuses its scratch VM.
type replayVM struct {
	util  trace.UtilModel
	cores float64
	end   int32 // first interval the VM no longer fully occupies
	idx   int32 // arrival index
	entry int32 // earliest first interval over targets
	// targets counts the points that placed the VM; their replayTargets
	// lead the slot's stride in replayState.targets.
	targets int32
}

// replayTarget is one point's placement of a replayed VM: the reading
// cell of the point's server, the first interval it counts toward, and
// the point's utilization scale.
type replayTarget struct {
	cell  int32
	first int32
	scale float64
}

// serverStats is one (point, server) pair's running statistics.
type serverStats struct {
	sumPct   float64
	busy     int
	above100 int
	maxPct   float64
}

// replayState is the replay's interval frontier and the VMs it holds.
// VMs live in slots of one slab, so keeping the held set in arrival
// order moves 4-byte slot numbers, not whole VMs; slot s's targets are
// targets[s*stride:], one stride per point.
type replayState struct {
	k        int32      // next interval to fold
	vms      []replayVM // slot slab
	targets  []replayTarget
	stride   int
	free     []int32 // slots whose VM has departed
	active   []int32 // slots of the VMs being evaluated, in arrival order
	pending  []int32 // slots of VMs that arrived before their entry interval
	scratch  []replayTarget
	offset   []int32   // first cell of each point
	capacity []float64 // each point's float32-rounded cores per server
	reading  []float32 // current interval, one cell per (point, server)
	stats    []serverStats
	evals    uint64
}

func newReplayState(ps []*placement) *replayState {
	r := &replayState{
		stride:   len(ps),
		offset:   make([]int32, len(ps)),
		capacity: make([]float64, len(ps)),
	}
	cells := 0
	for pi, p := range ps {
		r.offset[pi] = int32(cells)
		// The original stats pass divided by a float32 capacity; keep
		// that rounding so per-reading percentages stay bit-identical.
		r.capacity[pi] = float64(float32(p.cfg.Cluster.CoresPerServer))
		cells += p.servers
	}
	r.reading = make([]float32, cells)
	r.stats = make([]serverStats, cells)
	return r
}

// alloc returns a free slot, growing the slab when none is free.
func (r *replayState) alloc() int32 {
	if n := len(r.free); n > 0 {
		slot := r.free[n-1]
		r.free = r.free[:n-1]
		return slot
	}
	r.vms = append(r.vms, replayVM{})
	r.targets = append(r.targets, make([]replayTarget, r.stride)...)
	return int32(len(r.vms) - 1)
}

// targetsOf is slot's stride of the target slab.
//
//rcvet:hotpath
func (r *replayState) targetsOf(slot int32) []replayTarget {
	lo := int(slot) * r.stride
	return r.targets[lo : lo+r.stride]
}

// join adds the VM in slot to the evaluated set, or parks it until the
// replay reaches its entry interval.
func (r *replayState) join(slot int32) {
	if r.vms[slot].entry > r.k {
		r.pending = append(r.pending, slot)
		return
	}
	r.insert(slot)
}

// insert places slot's VM in arrival order. On a sorted trace every VM
// joins after all the VMs already held, so this is an append.
func (r *replayState) insert(slot int32) {
	idx := r.vms[slot].idx
	n := len(r.active)
	if n == 0 || r.vms[r.active[n-1]].idx < idx {
		r.active = append(r.active, slot)
		return
	}
	pos, _ := slices.BinarySearchFunc(r.active, idx, func(s, idx int32) int {
		return int(r.vms[s].idx - idx)
	})
	r.active = slices.Insert(r.active, pos, slot)
}

// admit moves every parked VM whose entry interval has come into the
// evaluated set.
func (r *replayState) admit() {
	kept := r.pending[:0]
	for _, slot := range r.pending {
		if r.vms[slot].entry <= r.k {
			r.insert(slot)
		} else {
			kept = append(kept, slot)
		}
	}
	r.pending = kept
}

// advance folds intervals [k, upto). Each interval evaluates every held
// VM's maximum once, releases the VMs whose window has passed, then
// folds every nonzero reading into its cell's statistics and clears it.
func (r *replayState) advance(upto int32) {
	for ; r.k < upto; r.k++ {
		if len(r.pending) > 0 {
			r.admit()
		}
		if len(r.active) == 0 {
			if len(r.pending) == 0 {
				r.k = upto
				return
			}
			continue
		}
		live := r.evalInterval()
		r.free = append(r.free, r.active[live:]...)
		r.active = r.active[:live]
		r.evals += uint64(live)
		r.fold()
	}
}

// evalInterval adds every held VM's contribution at interval k to the
// readings of the servers hosting it. It compacts the VMs still inside
// their window to the front of active, in order, and returns how many
// there are; the departed VMs' slots end up behind them.
//
//rcvet:hotpath
func (r *replayState) evalInterval() int {
	k := r.k
	tk := trace.NewUtilTick(trace.Minutes(k) * trace.ReadingIntervalMin)
	live := 0
	for i, slot := range r.active {
		vm := &r.vms[slot]
		if k >= vm.end {
			continue
		}
		base := vm.util.MaxAt(&tk) / 100 * vm.cores
		for _, t := range r.targetsOf(slot)[:vm.targets] {
			if t.first <= k {
				r.reading[t.cell] += float32(base * t.scale)
			}
		}
		r.active[live], r.active[i] = slot, r.active[live]
		live++
	}
	return live
}

// fold finalizes interval k's readings into the per-cell statistics.
//
//rcvet:hotpath
func (r *replayState) fold() {
	for pi, off := range r.offset {
		end := len(r.reading)
		if pi+1 < len(r.offset) {
			end = int(r.offset[pi+1])
		}
		capacity := r.capacity[pi]
		stats := r.stats[off:end]
		for s, reading := range r.reading[off:end] {
			if reading == 0 {
				continue
			}
			r.reading[int(off)+s] = 0
			if reading <= 0 {
				continue
			}
			st := &stats[s]
			pct := float64(reading) / capacity * 100
			st.sumPct += pct
			st.busy++
			if pct > 100 {
				st.above100++
			}
			if pct > st.maxPct {
				st.maxPct = pct
			}
		}
	}
}
