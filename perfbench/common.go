package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"resourcecentral/internal/core"
	"resourcecentral/internal/metric"
	"resourcecentral/internal/obs"
	"resourcecentral/internal/pipeline"
	"resourcecentral/internal/store"
	"resourcecentral/internal/synth"
	"resourcecentral/internal/trace"
)

// The Section 6.2 trace every workload runs on: 15 days, about 21.3k VMs
// (EXPERIMENTS.md, `rcsched -days 15 -vms 20000`).
const (
	traceDays      = 15
	traceTargetVMs = 20000
)

// synth's lifetimes are heavy-tailed, so the work in a trace swings with
// the seed: over seeds 1-200 the VM-intervals the replay evaluates have a
// quartile spread of 21% of their median, and the VMs before the 2/3
// training cutoff 11%. A workload is defined at a stated size instead:
// synthSeed draws synth seeds from --seed until the trace is within these
// shares of seed 1's size, which about one seed in forty is. Seed 1 is its
// own first draw.
const (
	traceIntervals      = 5324153 // 5-minute readings spanned by seed 1's VMs
	traceTrainVMs       = 13521   // seed 1's VMs created before the 2/3 cutoff
	traceIntervalsShare = 0.03
	traceTrainVMsShare  = 0.05
	traceMaxDraws       = 1000
)

func synthConfig(seed uint64) synth.Config {
	cfg := synth.DefaultConfig()
	cfg.Days = traceDays
	cfg.TargetVMs = traceTargetVMs
	cfg.Seed = seed
	return cfg
}

// synthSeed returns the first of seed, seed+1<<32, seed+2<<32, ... whose
// trace has the stated size; the choice is cached for the run.
func (b *bench) synthSeed() (uint64, error) {
	if b.traceSeed != nil {
		return *b.traceSeed, nil
	}
	for draw := uint64(0); draw < traceMaxDraws; draw++ {
		seed := b.seed + draw<<32
		res, err := synth.GenerateColumns(synthConfig(seed))
		if err != nil {
			return 0, err
		}
		intervals, trainVMs := traceSize(res.Columns)
		if math.Abs(intervals/traceIntervals-1) <= traceIntervalsShare &&
			math.Abs(float64(trainVMs)/traceTrainVMs-1) <= traceTrainVMsShare {
			b.traceSeed = &seed
			return seed, nil
		}
	}
	return 0, fmt.Errorf("no trace of the stated size in %d draws from seed %d", traceMaxDraws, b.seed)
}

// genTrace synthesizes the workload's trace and RCTB-encodes it.
func (b *bench) genTrace(parent int) (*trace.Columns, []byte, error) {
	seed, err := b.synthSeed()
	if err != nil {
		return nil, nil, err
	}
	var cols *trace.Columns
	genD, err := b.call("synth.generate", "synth", parent, func() error {
		res, err := synth.GenerateColumns(synthConfig(seed))
		if err == nil {
			cols = res.Columns
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	var data []byte
	encD, err := b.call("trace.encode", "trace", parent, func() error {
		data, err = trace.EncodeColumns(cols)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if b.traced {
		b.metric("synth.generate_s", genD.Seconds(), "s")
		b.metric("trace.encode_s", encD.Seconds(), "s")
		b.metric("trace.bytes", float64(len(data)), "bytes")
	}
	return cols, data, nil
}

// decode reads the workload's trace back from its RCTB bytes, as every
// command that loads an .rctb file does.
func (b *bench) decode(data []byte, parent int) (*trace.Columns, error) {
	var cols *trace.Columns
	_, err := b.call("trace.decode", "trace", parent, func() error {
		var err error
		cols, err = trace.DecodeColumns(data)
		return err
	})
	return cols, err
}

// traceSize returns the 5-minute readings the trace's VMs span within the
// horizon and the number of VMs created before the offline cutoff.
func traceSize(c *trace.Columns) (intervals float64, trainVMs int) {
	var v trace.VM
	for i := 0; i < c.Len(); i++ {
		c.VMAt(i, &v)
		intervals += float64(min(v.Deleted, c.Horizon)-v.Created) / trace.ReadingIntervalMin
		if v.Created < c.Horizon*2/3 {
			trainVMs++
		}
	}
	return intervals, trainVMs
}

// deployed is a trained model set published to a store and loaded by an
// initialized push-mode client.
type deployed struct {
	res    *pipeline.Result
	acc    float64 // acc_mean of res
	st     *store.Store
	client *core.Client
}

// deploy trains at cutoff, publishes and initializes a push-mode client,
// as cmd/rcsched does. reg (nil untraced) instruments every layer.
func (b *bench) deploy(cols *trace.Columns, cutoff trace.Minutes, reg *obs.Registry, parent int) (*deployed, error) {
	d := &deployed{st: store.New()}
	if reg != nil {
		d.st.Instrument(reg)
	}
	if _, err := b.call("pipeline.RunColumns", "pipeline", parent, func() error {
		var err error
		d.res, err = pipeline.RunColumns(cols, pipeline.Config{TrainCutoff: cutoff, Seed: b.seed, Obs: reg})
		return err
	}); err != nil {
		return nil, err
	}
	var err error
	if d.acc, err = accMean(d.res); b.op("acc_mean", err) != nil {
		return nil, err
	}
	if _, err := b.call("store.publish", "store", parent, func() error {
		return pipeline.Publish(d.st, d.res, reg)
	}); err != nil {
		return nil, err
	}
	if _, err := b.call("core.initialize", "core", parent, func() error {
		var err error
		d.client, err = newClient(d.st, reg)
		return err
	}); err != nil {
		return nil, err
	}
	return d, nil
}

// deployMetrics reports the per-layer metrics of the offline loop's
// layers — decode, feature data, extraction, training, model sizes,
// publication and Initialize — from the traced run's spans and registry.
// offline times these layers in its measured pass; serve and sweep in
// their set-up, which decodes and deploys the same way.
func (b *bench) deployMetrics(rec *spanRecorder, reg *obs.Registry, dep *deployed) {
	b.metric("trace.decode_s", rec.byName("trace.decode").Seconds(), "s")
	b.metric("featuredata.build_s", rec.byName("pipeline.featuredata").Seconds(), "s")
	b.metric("featuredata.records", famValue(reg, "rc_pipeline_feature_records"), "count")
	b.metric("featuredata.bytes", famValue(reg, "rc_pipeline_feature_bytes"), "bytes")
	b.metric("pipeline.extract_s", rec.byName("pipeline.extract").Seconds(), "s")
	var trainSum time.Duration
	for _, m := range metric.All {
		td := rec.byName("pipeline.train." + m.String())
		trainSum += td
		b.metric("ml.train_s."+m.String(), td.Seconds(), "s")
		b.metric("pipeline.train_samples."+m.String(), float64(dep.res.ByMetric[m].TrainSamples), "count")
		var size int
		if blob, err := dep.st.Get(pipeline.ModelKey(m)); b.op("model blob "+m.String(), err) == nil {
			size = len(blob.Data)
		}
		b.metric("model.bytes."+m.String(), float64(size), "bytes")
	}
	wall := rec.byName("pipeline.train")
	b.metric("pipeline.train_busy_frac", trainSum.Seconds()/max(1e-9, wall.Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio")
	b.metric("store.publish_s", rec.byName("store.publish").Seconds(), "s")
	b.metric("core.initialize_s", rec.byName("core.initialize").Seconds(), "s")
}

// passMetrics reports the store, client, serving-tier and simulator
// counters accumulated over the traced measured pass (delta). A layer the
// workload does not call reports zero.
func (b *bench) passMetrics(delta counters) {
	b.metric("store.puts", delta.v["rc_store_puts_total"], "count")
	b.metric("store.put_bytes", delta.h["rc_store_record_bytes"].Sum, "bytes")
	b.metric("store.notifications_sent", delta.v["rc_store_notifications_sent_total"], "count")
	b.metric("store.notifications_dropped", delta.v["rc_store_notifications_dropped_total"], "count")

	hits, misses := delta.v["rc_client_result_cache_hits_total"], delta.v["rc_client_result_cache_misses_total"]
	b.metric("core.result_hit_ratio", hits/max(1, hits+misses), "ratio")
	b.metric("core.model_execs", delta.v["rc_client_model_execs_total"], "count")
	b.metric("core.no_predictions", delta.v["rc_client_no_predictions_total"], "count")
	b.metric("core.push_updates", delta.v["rc_client_push_updates_total"], "count")

	leaders, followers := delta.v["rc_serve_coalesce_leaders_total"], delta.v["rc_serve_coalesce_followers_total"]
	b.metric("serve.coalesce_ratio", followers/max(1, leaders+followers), "ratio")
	b.metric("serve.batches", delta.v["rc_serve_batches_total"], "count")
	var sizeMean float64
	if size := delta.h["rc_serve_batch_size"]; size.Count > 0 {
		sizeMean = size.Mean()
	}
	b.metric("serve.batch_size_mean", sizeMean, "count")
	for _, reason := range []string{"admission", "queue"} {
		b.metric("serve.shed."+reason, delta.v["rc_serve_shed_total/reason="+reason], "count")
	}

	for _, c := range []string{"arrivals", "placements", "failures", "predictions"} {
		b.metric("sim."+c, delta.v["rc_sim_"+c+"_total"], "count")
	}
	for _, rule := range []string{"admission", "spread", "lifetime", "packing"} {
		b.metric("cluster.rule_evals."+rule, delta.v["rc_sim_rule_evaluations_total/rule="+rule], "count")
	}
}

// deployTrace is the set-up of serve and sweep: synthesize and encode the
// trace, decode it, and deploy models trained on its first third, as
// cmd/rcsched does.
func (b *bench) deployTrace(reg *obs.Registry) (*trace.Columns, *deployed, error) {
	_, data, err := b.genTrace(0)
	if err != nil {
		return nil, nil, err
	}
	cols, err := b.decode(data, 0)
	if err != nil {
		return nil, nil, err
	}
	dep, err := b.deploy(cols, cols.Horizon/3, reg, 0)
	return cols, dep, err
}

// deployAccSeed1 is acc_mean for seed 1 of the models serve and sweep
// train at a third of the horizon; offlineAccSeed1 is the offline loop's.
const deployAccSeed1 = 0.89241857005716951

// reportAcc reports acc_mean, checks that every training in the run gave
// the same value and, for seed 1, that it equals the recorded one.
func (b *bench) reportAcc(accs []float64, seed1 float64) {
	for _, a := range accs[1:] {
		b.check("acc_mean repeats", a == accs[0], "acc_mean %v then %v", accs[0], a)
	}
	if b.seed == 1 {
		b.check("acc_mean pinned", math.Abs(accs[0]-seed1) < 1e-12,
			"seed 1 acc_mean %.17g, recorded %.17g", accs[0], seed1)
	}
	b.metric("acc_mean", accs[0], "ratio")
}

// newClient creates and initializes a push-mode client over st.
func newClient(st *store.Store, reg *obs.Registry) (*core.Client, error) {
	c, err := core.New(core.Config{Store: st, Mode: core.Push, Obs: reg})
	if err != nil {
		return nil, err
	}
	if err := c.Initialize(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// famValue sums the counter/gauge values (histogram sums) of the samples
// of family name whose labels include every given key, value pair.
func famValue(reg *obs.Registry, name string, labels ...string) float64 {
	var v float64
	for _, s := range famSamples(reg, name, labels...) {
		if s.Histogram != nil {
			v += s.Histogram.Sum
		} else {
			v += s.Value
		}
	}
	return v
}

func famSamples(reg *obs.Registry, name string, labels ...string) []obs.Sample {
	var out []obs.Sample
	for _, f := range reg.Gather() {
		if f.Name != name {
			continue
		}
	samples:
		for _, s := range f.Samples {
			for i := 0; i+1 < len(labels); i += 2 {
				found := false
				for _, l := range s.Labels {
					if l.Key == labels[i] && l.Value == labels[i+1] {
						found = true
					}
				}
				if !found {
					continue samples
				}
			}
			out = append(out, s)
		}
	}
	return out
}

// allocBytes reads the runtime's cumulative heap allocation counter.
func allocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// finishTrace closes the traced pass: writes spans and reports the
// coverage of root by layer spans.
func (b *bench) finishTrace(root int) error {
	b.spans.finish()
	b.metric("span_coverage", b.spans.coverage(root), "ratio")
	path, err := b.outPath("spans", "jsonl")
	if err != nil {
		return err
	}
	if err := b.spans.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if path, err = b.outPath("details", "json"); err != nil {
		return err
	}
	details, err := json.MarshalIndent(b.details, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(details, '\n'), 0o644)
}

// runtimeHists reads the runtime's scheduling-latency and GC-pause
// histograms.
func runtimeHists() []metrics.Sample {
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}, {Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	return s
}

// histDeltaQuantile returns the q-quantile (upper bucket bound) of the
// observations in b that were not yet in a.
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen > rank {
			return b.Buckets[i+1]
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}
