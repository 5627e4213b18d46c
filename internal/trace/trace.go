// Package trace defines the VM workload trace data model of the
// reproduction: VM records, subscriptions, deployments, and 5-minute
// utilization readings, mirroring the dataset described in Section 3 of the
// paper (and, in spirit, the public AzurePublicDataset schema).
//
// Utilization time series are not materialized: each VM carries a compact
// deterministic utilization model (UtilModel) from which any 5-minute
// reading can be computed on demand. This keeps month-long traces with
// hundreds of thousands of VMs small while remaining exactly reproducible.
package trace

import (
	"fmt"
	"math"
	"time"
)

// VMType distinguishes Infrastructure-as-a-Service from
// Platform-as-a-Service VMs (Section 3.1).
type VMType int

// VM types.
const (
	IaaS VMType = iota
	PaaS
)

// String implements fmt.Stringer.
func (t VMType) String() string {
	switch t {
	case IaaS:
		return "IaaS"
	case PaaS:
		return "PaaS"
	default:
		return fmt.Sprintf("VMType(%d)", int(t))
	}
}

// ParseVMType parses the String form.
func ParseVMType(s string) (VMType, error) {
	switch s {
	case "IaaS":
		return IaaS, nil
	case "PaaS":
		return PaaS, nil
	}
	return 0, fmt.Errorf("trace: unknown VM type %q", s)
}

// Party distinguishes first-party (internal and first-party services) from
// third-party (external customer) workloads.
type Party int

// Parties.
const (
	FirstParty Party = iota
	ThirdParty
)

// String implements fmt.Stringer.
func (p Party) String() string {
	switch p {
	case FirstParty:
		return "first"
	case ThirdParty:
		return "third"
	default:
		return fmt.Sprintf("Party(%d)", int(p))
	}
}

// ParseParty parses the String form.
func ParseParty(s string) (Party, error) {
	switch s {
	case "first":
		return FirstParty, nil
	case "third":
		return ThirdParty, nil
	}
	return 0, fmt.Errorf("trace: unknown party %q", s)
}

// Minutes is a timestamp measured in minutes from the start of the trace.
// The telemetry granularity is 5 minutes, matching the paper's dataset.
type Minutes int64

// Duration converts to a time.Duration.
func (m Minutes) Duration() time.Duration { return time.Duration(m) * time.Minute }

// ReadingIntervalMin is the telemetry reporting interval in minutes.
const ReadingIntervalMin = 5

// VM is one virtual machine record. Created/Deleted delimit its lifetime;
// a Deleted value of NoEnd means the VM outlived the observation window.
type VM struct {
	ID           int64
	Subscription string
	Deployment   string
	Region       string
	Role         string
	// OS is the guest operating system family — one of the attributes the
	// paper found relevant for prediction accuracy (Section 6.1).
	OS    string
	Type  VMType
	Party Party
	// Production carries the production/non-production annotation of
	// first-party subscriptions used by the oversubscription rule
	// (Section 5). Third-party VMs are always treated as production.
	Production bool

	Cores    int
	MemoryGB float64

	Created Minutes
	Deleted Minutes

	Util UtilModel
}

// NoEnd marks a VM still running at the end of the observation window.
const NoEnd Minutes = 1<<62 - 1

// Lifetime returns the VM lifetime in minutes, or ok=false if the VM did
// not complete inside the window.
func (v *VM) Lifetime() (Minutes, bool) {
	if v.Deleted == NoEnd {
		return 0, false
	}
	return v.Deleted - v.Created, true
}

// AliveAt reports whether the VM is running at minute t.
func (v *VM) AliveAt(t Minutes) bool {
	return t >= v.Created && t < v.Deleted
}

// CoreHours returns the core-hours the VM consumed inside the window
// [0, horizon).
func (v *VM) CoreHours(horizon Minutes) float64 {
	return CoreHoursOf(v.Cores, v.Created, v.Deleted, horizon)
}

// CoreHoursOf is CoreHours over bare schedule columns, shared by the
// row and columnar walks so both produce bit-identical values.
//
//rcvet:hotpath
func CoreHoursOf(cores int, created, deleted, horizon Minutes) float64 {
	end := deleted
	if end > horizon {
		end = horizon
	}
	if end <= created {
		return 0
	}
	return float64(end-created) / 60 * float64(cores)
}

// Reading is one 5-minute utilization report: min, avg and max virtual CPU
// utilization over the interval, in percent of the VM's allocation.
type Reading struct {
	VMID Minutes
	T    Minutes
	Min  float64
	Avg  float64
	Max  float64
}

// Trace is a complete workload trace: the VM population plus the window.
type Trace struct {
	// Horizon is the length of the observation window in minutes.
	Horizon Minutes
	VMs     []VM
}

// Subscriptions groups VM indices by subscription id.
func (tr *Trace) Subscriptions() map[string][]int {
	subs := make(map[string][]int)
	for i := range tr.VMs {
		s := tr.VMs[i].Subscription
		subs[s] = append(subs[s], i)
	}
	return subs
}

// AvgSeries materializes the average-CPU series of v between its creation
// and min(deletion, horizon), one sample per 5 minutes. It allocates per
// call; hot loops should use AvgSeriesAppend with a reused buffer.
func AvgSeries(v *VM, horizon Minutes) []float64 {
	end := v.Deleted
	if end > horizon {
		end = horizon
	}
	if end <= v.Created {
		return nil
	}
	return AvgSeriesAppend(v, horizon, make([]float64, 0, int((end-v.Created)/ReadingIntervalMin)))
}

// AvgSeriesAppend appends v's average-CPU series to dst and returns it,
// reusing dst's capacity. Pass buf[:0] to overwrite a scratch buffer.
func AvgSeriesAppend(v *VM, horizon Minutes, dst []float64) []float64 {
	end := v.Deleted
	if end > horizon {
		end = horizon
	}
	for t := v.Created; t < end; t += ReadingIntervalMin {
		_, avg, _ := v.Util.At(t)
		dst = append(dst, avg)
	}
	return dst
}

// SummaryStats computes the whole-life average CPU utilization and the 95th
// percentile of the per-interval maximum utilizations — the two headline
// metrics of Figure 1. It streams the deterministic model rather than
// materializing readings.
func SummaryStats(v *VM, horizon Minutes) (avgCPU, p95Max float64) {
	avgCPU, p95Max, _ = SummaryStatsBuf(v, horizon, nil)
	return avgCPU, p95Max
}

// SummaryStatsBuf is SummaryStats with a caller-owned scratch buffer: it
// returns the (possibly grown) buffer so per-VM loops allocate it once.
// The buffer's contents are overwritten.
func SummaryStatsBuf(v *VM, horizon Minutes, scratch []float64) (avgCPU, p95Max float64, buf []float64) {
	end := v.Deleted
	if end > horizon {
		end = horizon
	}
	if end <= v.Created {
		return 0, 0, scratch
	}
	var sum float64
	maxes := scratch[:0]
	for t := v.Created; t < end; t += ReadingIntervalMin {
		_, avg, max := v.Util.At(t)
		sum += avg
		maxes = append(maxes, max)
	}
	if len(maxes) == 0 {
		return 0, 0, maxes
	}
	avgCPU = sum / float64(len(maxes))
	p95Max = quickP95(maxes)
	return avgCPU, p95Max, maxes
}

// P95MaxBuf is SummaryStats' p95Max alone, bit-identical to it, through
// the max-only evaluator: it neither draws the min stream nor sums the
// average. scratch is a caller-owned buffer (contents overwritten); the
// possibly grown buffer is returned for reuse.
func P95MaxBuf(v *VM, horizon Minutes, scratch []float64) (p95Max float64, buf []float64) {
	end := v.Deleted
	if end > horizon {
		end = horizon
	}
	maxes := scratch[:0]
	bursty := v.Util.Kind == UtilBursty
	for t := v.Created; t < end; t += ReadingIntervalMin {
		var tk UtilTick
		tk.set(t, bursty)
		maxes = append(maxes, v.Util.MaxAt(&tk))
	}
	if len(maxes) == 0 {
		return 0, maxes
	}
	return quickP95(maxes), maxes
}

// SummarizeSeries walks v's telemetry once, producing everything the
// feature-data and extraction hot loops need: the whole-life average CPU,
// the P95 of per-interval maxima, and the average-CPU series (for the
// periodicity FFT). SummaryStats + AvgSeries compute the same values in
// two passes; fusing them halves the utilization-model evaluations, the
// dominant cost of walking a trace. series and maxes are caller-owned
// scratch buffers (contents overwritten, capacity reused); the returned
// slices must be taken back by the caller.
func SummarizeSeries(v *VM, horizon Minutes, series, maxes []float64) (avgCPU, p95Max float64, seriesOut, maxesOut []float64) {
	return SummarizeModel(&v.Util, v.Created, v.Deleted, horizon, series, maxes)
}

// SummarizeModel is SummarizeSeries over bare columns: the utilization
// model plus the schedule timestamps, without a materialized VM. It is
// the one walk kernel both representations share, which is what makes
// the columnar consumers bit-identical to the row path.
func SummarizeModel(m *UtilModel, created, deleted, horizon Minutes, series, maxes []float64) (avgCPU, p95Max float64, seriesOut, maxesOut []float64) {
	series, maxes = series[:0], maxes[:0]
	end := deleted
	if end > horizon {
		end = horizon
	}
	if end <= created {
		return 0, 0, series, maxes
	}
	var sum float64
	for t := created; t < end; t += ReadingIntervalMin {
		_, avg, max := m.At(t)
		sum += avg
		series = append(series, avg)
		maxes = append(maxes, max)
	}
	if len(maxes) == 0 {
		return 0, 0, series, maxes
	}
	return sum / float64(len(maxes)), quickP95(maxes), series, maxes
}

// quickP95 computes the 95th percentile with a partial selection rather
// than a full sort; it is on the hot path of characterization and feature
// generation over millions of intervals.
//
//rcvet:hotpath
func quickP95(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	// Upper nearest-rank convention: the smallest value with at least 95%
	// of the sample at or below it.
	k := int(math.Ceil(0.95*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(xs) {
		k = len(xs) - 1
	}
	return quickSelect(xs, k)
}

// quickSelect returns the k-th smallest element (0-based), reordering xs.
//
//rcvet:hotpath
func quickSelect(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		p := partition(xs, lo, hi)
		switch {
		case k == p:
			return xs[k]
		case k < p:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
	return xs[k]
}

//rcvet:hotpath
func partition(xs []float64, lo, hi int) int {
	// Median-of-three pivot to avoid quadratic behaviour on sorted input.
	mid := (lo + hi) / 2
	if xs[mid] < xs[lo] {
		xs[mid], xs[lo] = xs[lo], xs[mid]
	}
	if xs[hi] < xs[lo] {
		xs[hi], xs[lo] = xs[lo], xs[hi]
	}
	if xs[hi] < xs[mid] {
		xs[hi], xs[mid] = xs[mid], xs[hi]
	}
	pivot := xs[mid]
	xs[mid], xs[hi] = xs[hi], xs[mid]
	i := lo
	for j := lo; j < hi; j++ {
		if xs[j] < pivot {
			xs[i], xs[j] = xs[j], xs[i]
			i++
		}
	}
	xs[i], xs[hi] = xs[hi], xs[i]
	return i
}
