// Command perfbench is the repository's end-to-end benchmark. It runs one
// of three workloads over the paper's whole loop, checks the outputs, and
// prints one JSON result line:
//
//	offline  synthesize → RCTB → decode → featuredata/extract/train/validate
//	         → publish → client Initialize (Fig. 9, Table 4)
//	serve    open-loop Poisson load on serve.Tier over a push-mode client,
//	         with periodic republishing (Section 6.1)
//	sweep    the 14-point Section 6.2 scheduler grid (rcsched -sweep all)
//
// With -trace 0 it reports the end-to-end metrics named in BENCHMARK.json;
// with -trace 1 it runs the workload once untraced and once traced (spans
// around every layer call, the layers' own obs spans and counters, and a
// CPU profile) and reports the per-layer metrics. Every workload reports
// every metric of its mode; a run whose metrics differ from the manifest's
// list fails. Spans, the profile and the workload-specific details that
// are not in the manifest are written under -out.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload offline --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// metricValue is one reported measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench is the state one workload run shares with its helpers.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	outDir   string

	// spans is nil outside the traced pass.
	spans *spanRecorder
	// traceSeed caches synthSeed's choice.
	traceSeed *uint64
	// heapPeak is the largest live heap noteHeap saw, in bytes.
	heapPeak float64

	res result
	// details holds the traced run's workload-specific measurements that
	// the manifest does not list; they are written beside the spans.
	details map[string]metricValue
}

func main() {
	workload := flag.String("workload", "", "offline | serve | sweep")
	seed := flag.Uint64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Int("seconds", 10, "measured time per run, in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := flag.String("out", ".bench_build/perfbench-out", "directory for the traced run's spans and CPU profile")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload offline|serve|sweep --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *traceFlag == 1,
		outDir:   *outDir,
		res:      result{Correct: true, Metrics: map[string]metricValue{}},
		details:  map[string]metricValue{},
	}
	want, err := manifestMetrics(manifestPath, b.traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d NumCPU=%d\n",
		b.workload, b.seed, *seconds, *traceFlag, runtime.GOMAXPROCS(0), runtime.NumCPU())

	// Choosing the trace is input generation, not set-up: do it untimed.
	if _, err := b.synthSeed(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		os.Exit(1)
	}
	if !b.traced {
		b.metric("heap_live_mb", b.heapPeak/(1<<20), "MB")
	}
	if err := sameNames(want, b.res.Metrics); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		os.Exit(1)
	}
	out, err := json.Marshal(b.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// workloads maps each --workload name to its runner.
var workloads = map[string]func(*bench) error{
	"offline": runOffline,
	"serve":   runServe,
	"sweep":   runSweep,
}

// metric records one reported value.
func (b *bench) metric(name string, v float64, unit string) {
	b.res.Metrics[name] = finite(name, v, unit)
}

// detail records one traced-run measurement that the manifest does not
// list, such as a latency only the serve workload has.
func (b *bench) detail(name string, v float64, unit string) {
	b.details[name] = finite(name, v, unit)
}

// finite returns v in unit, with NaN and ±Inf, which JSON cannot hold,
// reported and replaced by 0.
func finite(name string, v float64, unit string) metricValue {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v; reported as 0\n", name, v)
		v = 0
	}
	return metricValue{Value: v, Unit: unit}
}

// manifestPath is BENCHMARK.json, relative to the checkout's root.
const manifestPath = "BENCHMARK.json"

// manifestMetrics returns the names of the metrics the manifest lists for
// the run's mode: end_to_end untraced, per_layer traced.
func manifestMetrics(path string, traced bool) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := m.EndToEnd
	if traced {
		list = m.PerLayer
	}
	names := map[string]bool{}
	for _, x := range list {
		names[x.Name] = true
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%s lists no metrics", path)
	}
	return names, nil
}

// sameNames reports an error unless got holds exactly the wanted metrics.
func sameNames(want map[string]bool, got map[string]metricValue) error {
	var missing, extra []string
	for n := range want {
		if _, ok := got[n]; !ok {
			missing = append(missing, n)
		}
	}
	for n := range got {
		if !want[n] {
			extra = append(extra, n)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(missing)
		sort.Strings(extra)
		return fmt.Errorf("metrics differ from %s: missing %v, not listed %v", manifestPath, missing, extra)
	}
	return nil
}

// op counts one attempted operation and, when err is non-nil, one failed
// operation; a failure also marks the run incorrect.
func (b *bench) op(what string, err error) error {
	b.res.Attempted++
	if err != nil {
		b.res.Failed++
		b.res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	}
	return err
}

// check counts one output check.
func (b *bench) check(what string, ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf("check failed: "+format, args...)
	}
	_ = b.op(what, err) // reported and counted; checks never stop the run
}

// A run repeats its set-up at least setupMinRepeats times and until
// setupMinTime has passed, at most setupMaxRepeats times, and reports the
// median: a short set-up is repeated often enough that one slow pass on a
// shared host does not move it.
const (
	setupMinRepeats = 2
	setupMinTime    = time.Second
	setupMaxRepeats = 15
)

// timeSetup runs fn as often as the constants above say (once when
// traced) and reports the median as setup_s.
func timeSetup(b *bench, fn func() error) error {
	var durs []float64
	begin := time.Now()
	for len(durs) < setupMaxRepeats {
		if len(durs) > 0 && (b.traced || len(durs) >= setupMinRepeats && time.Since(begin) >= setupMinTime) {
			break
		}
		start := time.Now()
		if err := fn(); err != nil {
			return err
		}
		durs = append(durs, time.Since(start).Seconds())
		b.noteHeap()
	}
	if !b.traced {
		b.metric("setup_s", median(durs), "s")
	}
	return nil
}

// minimum returns the smallest of xs: the pass least disturbed by other
// tenants of a shared host, whose interference only ever slows a pass.
func minimum(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileSorted returns the q-quantile of an ascending slice by the
// nearest-rank rule.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

const heapLiveMetric = "/gc/heap/live:bytes"

// noteHeap collects garbage and records the live heap if it is the run's
// peak. Workloads call it, outside timed regions, at the end of each stage
// while the stage's state is still referenced, so heap_live_mb is the
// peak live heap after GC at stage boundaries: the same on every run of a
// seed, unlike a sample that depends on when the collector happened to run.
func (b *bench) noteHeap() {
	runtime.GC()
	s := []metrics.Sample{{Name: heapLiveMetric}}
	metrics.Read(s)
	if v := float64(s[0].Value.Uint64()); v > b.heapPeak {
		b.heapPeak = v
	}
}
