package main

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"time"

	"resourcecentral/internal/metric"
	"resourcecentral/internal/model"
	"resourcecentral/internal/obs"
	"resourcecentral/internal/pipeline"
	"resourcecentral/internal/trace"
)

// offlineAccSeed1 is acc_mean for seed 1: the mean held-out Table 4
// accuracy of the six models, deterministic per seed. A change that moves
// it changed model quality, not only speed.
const offlineAccSeed1 = 0.90177248102333429

// offlineMinPasses is the fewest offline loops a run times, however short
// --seconds is; op_ms and op_cpu_ms are those of the fastest.
const offlineMinPasses = 2

// runOffline measures the paper's offline loop (Fig. 9) on the RCTB
// bytes of the Section 6.2 trace: decode, feature data, extraction,
// training and validation of all six models, publication, and client
// initialization.
func runOffline(b *bench) error {
	var rec *spanRecorder
	if b.traced {
		rec = newSpanRecorder()
		b.spans = rec
	}
	var data []byte
	if err := timeSetup(b, func() error {
		var err error
		_, data, err = b.genTrace(0)
		return err
	}); err != nil {
		return err
	}
	if b.traced {
		return b.offlineTraced(rec, data)
	}

	var durs, cpus, accs []float64
	var last *deployed
	deadline := time.Now().Add(b.seconds)
	for len(durs) < offlineMinPasses || time.Now().Before(deadline) {
		cpu0 := cpuTime()
		cols, dep, d, _, err := b.offlinePass(data, nil)
		if err != nil {
			return err
		}
		durs = append(durs, d.Seconds())
		cpus = append(cpus, (cpuTime() - cpu0).Seconds())
		b.noteHeap()
		accs = append(accs, dep.acc)
		if last == nil {
			b.offlineChecks(data, cols, dep)
		} else {
			last.client.Close()
		}
		last = dep
	}
	last.client.Close()
	b.reportAcc(accs, offlineAccSeed1)
	fmt.Fprintf(os.Stderr, "perfbench: offline loops %.3f s, CPU %.3f s\n", durs, cpus)
	b.metric("op_ms", 1e3*minimum(durs), "ms")
	b.metric("op_cpu_ms", 1e3*minimum(cpus), "ms")
	return nil
}

// offlinePass runs one offline loop from RCTB bytes to an initialized
// client and returns its wall time and root span.
func (b *bench) offlinePass(data []byte, reg *obs.Registry) (*trace.Columns, *deployed, time.Duration, int, error) {
	root := b.spans.begin("offline", "bench", 0)
	start := time.Now()
	cols, err := b.decode(data, root)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	dep, err := b.deploy(cols, cols.Horizon*2/3, reg, root)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	d := time.Since(start)
	b.spans.end(root)
	return cols, dep, d, root, nil
}

// accMean is the mean held-out accuracy of the six models.
func accMean(res *pipeline.Result) (float64, error) {
	var sum float64
	for _, m := range metric.All {
		mr := res.ByMetric[m]
		if mr == nil || mr.Report == nil {
			return 0, fmt.Errorf("%s: no held-out report", m)
		}
		sum += mr.Report.Accuracy
	}
	return sum / float64(len(metric.All)), nil
}

// offlineChecks verifies the loop's outputs: the decoded trace re-encodes
// to the input bytes, and every published model survives an
// Encode→Decode round trip, passes SanityCheck and predicts as trained.
func (b *bench) offlineChecks(data []byte, cols *trace.Columns, dep *deployed) {
	re, err := trace.EncodeColumns(cols)
	b.check("trace re-encode", err == nil && bytes.Equal(re, data),
		"re-encoded trace differs from input (%d vs %d bytes, err %v)", len(re), len(data), err)

	var probe trace.VM
	cols.VMAt(cols.Len()/2, &probe)
	in := model.FromVM(&probe, 1)
	for _, m := range metric.All {
		b.check("model round trip "+m.String(), modelRoundTrip(dep, m, &in) == nil, "%v", modelRoundTrip(dep, m, &in))
	}
}

// modelRoundTrip decodes the published model m, checks it, re-encodes and
// re-decodes it, and compares its prediction on in with the trained one.
func modelRoundTrip(dep *deployed, m metric.Metric, in *model.ClientInputs) error {
	blob, err := dep.st.Get(pipeline.ModelKey(m))
	if err != nil {
		return err
	}
	t1, err := model.Decode(blob.Data)
	if err != nil {
		return err
	}
	if err := t1.SanityCheck(); err != nil {
		return err
	}
	enc, err := t1.Encode()
	if err != nil {
		return err
	}
	t2, err := model.Decode(enc)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(t1, t2) {
		return fmt.Errorf("model %s changed across Encode→Decode", m)
	}
	orig := dep.res.ByMetric[m].Model
	sub := dep.res.Features[in.Subscription]
	x := orig.Spec.Featurize(in, sub, nil)
	c1, s1, err1 := orig.Predict(x)
	c2, s2, err2 := t2.Predict(t2.Spec.Featurize(in, sub, nil))
	if err1 != nil || err2 != nil || c1 != c2 || s1 != s2 {
		return fmt.Errorf("model %s predicts %d/%v after round trip, %d/%v trained (%v, %v)", m, c2, s2, c1, s1, err2, err1)
	}
	return nil
}

// offlineTraced runs one untraced reference pass and one traced pass and
// reports the per-layer metrics.
func (b *bench) offlineTraced(rec *spanRecorder, data []byte) error {
	b.spans = nil
	a0 := allocBytes()
	_, ref, refD, _, err := b.offlinePass(data, nil)
	if err != nil {
		return err
	}
	b.metric("alloc_mb", (allocBytes()-a0)/(1<<20), "MB")
	ref.client.Close()

	b.spans = rec
	reg := obs.NewRegistry()
	rec.collect(reg)
	path, err := b.outPath("cpu", "pprof")
	if err != nil {
		return err
	}
	before := snapshotCounters(reg)
	prof, err := startProfiler()
	if err != nil {
		return err
	}
	_, dep, d, root, err := b.offlinePass(data, reg)
	if err != nil {
		prof.abort()
		return err
	}
	defer dep.client.Close()
	if err := prof.stop(b, path); err != nil {
		return err
	}
	b.metric("trace_overhead", d.Seconds()/refD.Seconds(), "ratio")
	b.deployMetrics(rec, reg, dep)
	b.passMetrics(snapshotCounters(reg).sub(before))
	b.genMetrics(nil, 0)
	return b.finishTrace(root)
}
