package main

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"resourcecentral/internal/core"
	"resourcecentral/internal/metric"
	"resourcecentral/internal/model"
	"resourcecentral/internal/obs"
	"resourcecentral/internal/pipeline"
	"resourcecentral/internal/serve"
	"resourcecentral/internal/trace"
)

// The serve workload's traffic: rcload's mix and population, driven
// in-process by one open-loop Poisson generator.
const (
	serveRate       = 20000.0 // nominal requests per second
	servePopulation = 4096    // distinct cold inputs sampled from the trace
	serveHotKeys    = 32      // the hot set: the population's first inputs
	serveHotShare   = 0.50    // hot singles
	serveBatchShare = 0.05    // PredictBatch calls; the rest are cold singles
	serveBatchSize  = 16
	// serveMaxInFlight bounds the generator's outstanding requests; an
	// arrival beyond it is dropped and counted as failed.
	serveMaxInFlight = 4096
	serveWarmup      = 2 * time.Second
	serveRepublish   = 2 * time.Second
	serveTimeout     = time.Second
	// serveLatencyLimit is the p99 limit of serve_max_qps. The paper's
	// 5.6 ms P99 store pull suggests 5 ms, but on a 2-vCPU VM a bare
	// 500 µs time.Sleep overshoots by 3-5 ms at p99, so the tier's 500 µs
	// batch window alone puts p99 at 5-10 ms at every rate; 25 ms keeps
	// the limit above that floor so the ladder finds the capacity knee.
	serveLatencyLimit = 25.0 // ms
	// serveMaxFailShare is serve_max_qps' limit on failed requests.
	serveMaxFailShare = 0.001
	// serveLateLimit marks the nominal window invalid: a generator late
	// by the paper's 5 ms is measuring itself, not the server. A ladder
	// rung may run later, up to half of serveLatencyLimit, before the
	// generator rather than the server bounds the rate.
	serveLateLimit     = 5.0 // ms
	serveRungLateLimit = serveLatencyLimit / 2
	// serveSubWindow splits the nominal window; serve op_ms and
	// serve_p99_ms are medians over sub-windows, each spanning one
	// republish, so one host stall moves one sub-window, not the run.
	serveSubWindow = 2 * time.Second
	serveRungTime  = 2 * time.Second
	// serveCheckEvery samples one single in this many for the answer check.
	serveCheckEvery = 16
)

// serveLadder is the fixed rate ladder serve_max_qps climbs.
var serveLadder = []float64{20000, 40000, 60000, 80000, 100000, 120000, 140000, 160000}

// Request classes.
const (
	classHot = iota
	classCold
	classBatch
	numClasses
)

var classNames = [numClasses]string{"hot", "cold", "batch"}

// Request outcomes.
const (
	outOK       = iota // usable prediction
	outNoPred          // model-level no-prediction (no feature data)
	outDegraded        // shed by admission control
	outError           // error or timeout
	outDropped         // generator's in-flight bound exceeded
)

// request is one scheduled arrival and what became of it.
type request struct {
	class  uint8
	out    uint8
	model  uint8
	input  int32   // single requests
	items  []int32 // batch requests
	noPred int32   // batch items answered with a no-prediction
	bucket int32
	score  float64
	lat    time.Duration // from the scheduled send time
	sched  time.Duration // scheduled send time from the window's start
}

func (r *request) failed() bool {
	return r.out == outDegraded || r.out == outError || r.out == outDropped || r.lat > serveTimeout
}

// latMs is the request's latency in ms, +Inf when it failed.
func (r *request) latMs() float64 {
	if r.failed() {
		return math.Inf(1)
	}
	return float64(r.lat) / 1e6
}

// server is the system under load.
type server struct {
	dep    *deployed
	tier   *serve.Tier
	pop    []model.ClientInputs
	models []string
	reg    *obs.Registry

	pubMu     sync.Mutex
	pubDurs   []float64
	pubErrors int
}

// window is one open-loop measurement at a fixed rate.
type window struct {
	rate      float64
	reqs      []request
	elapsed   time.Duration
	lat       []float64 // ms, ascending; failed requests are +Inf
	failed    int
	late      []float64 // generator lateness, ms, ascending
	peak      int64
	inflightQ [4]float64 // mean in-flight count per quarter of the window
	cpu       time.Duration
}

func (w *window) p(q float64) float64 { return quantileSorted(w.lat, q) }
func (w *window) lateP99() float64    { return quantileSorted(w.late, 0.99) }
func (w *window) failShare() float64  { return float64(w.failed) / float64(max(1, len(w.reqs))) }

// cpuPerReq is the process CPU time the window spent per request, in
// seconds: the generator, the tier, the client and the republisher.
func (w *window) cpuPerReq() float64 { return w.cpu.Seconds() / float64(max(1, len(w.reqs))) }

// backlog reports a growing queue: the last quarter holds far more
// requests in flight than the first.
func (w *window) backlog() bool {
	return w.inflightQ[3] > 2*w.inflightQ[0]+w.rate*serveLatencyLimit/1000
}

func (w *window) valid() bool { return w.lateP99() <= serveLateLimit }

// meets reports whether a ladder rung ran validly and met the limits.
func (w *window) meets() bool {
	return w.lateP99() <= serveRungLateLimit && w.p(0.99) <= serveLatencyLimit &&
		w.failShare() <= serveMaxFailShare && !w.backlog()
}

// subQuantiles returns the median over serveSubWindow slices of the
// window of each slice's p50 and p99 (failed requests count as +Inf).
func (w *window) subQuantiles() (p50, p99 float64) {
	n := max(1, int(w.elapsed/serveSubWindow))
	subs := make([][]float64, n)
	for i := range w.reqs {
		k := min(n-1, int(w.reqs[i].sched/serveSubWindow))
		subs[k] = append(subs[k], w.reqs[i].latMs())
	}
	var p50s, p99s []float64
	for _, s := range subs {
		sort.Float64s(s)
		p50s = append(p50s, quantileSorted(s, 0.50))
		p99s = append(p99s, quantileSorted(s, 0.99))
	}
	return median(p50s), median(p99s)
}

// runServe drives serve.Tier over a push-mode client with the rcload mix
// at the nominal rate; a republish every 2 s makes store writes and push
// invalidations compete with reads. The traced run also climbs the rate
// ladder.
func runServe(b *bench) error {
	var rec *spanRecorder
	var reg *obs.Registry
	if b.traced {
		rec = newSpanRecorder()
		b.spans = rec
		reg = obs.NewRegistry()
		rec.collect(reg)
	}
	var srv *server
	var accs []float64
	if err := timeSetup(b, func() error {
		if srv != nil {
			srv.close()
		}
		var err error
		if srv, err = b.newServer(reg); err != nil {
			return err
		}
		accs = append(accs, srv.dep.acc)
		return nil
	}); err != nil {
		return err
	}
	defer srv.close()

	if b.traced {
		return b.serveTraced(srv, rec, reg)
	}
	w := b.nominalWindow(srv)
	b.noteHeap()
	p50, _ := w.subQuantiles()
	b.metric("op_ms", p50, "ms")
	b.metric("op_cpu_ms", 1e3*w.cpuPerReq(), "ms")
	b.reportAcc(accs, deployAccSeed1)
	b.serveChecks(srv, w)
	return srv.publishErrors()
}

// maxQPS climbs the rate ladder and returns the highest rate that meets
// the limits; a rung that misses is run once more, so one host stall
// does not end the climb.
func (b *bench) maxQPS(srv *server) float64 {
	best := 0.0
	for i, rate := range serveLadder {
		ok := false
		for try := uint64(0); try < 2 && !ok; try++ {
			rw := b.runWindow(srv, rate, serveRungTime, uint64(100+2*i)+try, 0)
			fmt.Fprintf(os.Stderr, "perfbench: rung %.0f req/s: p99 %.2f ms, failed %.4f%%, late p99 %.2f ms, in flight %.0f→%.0f\n",
				rate, rw.p(0.99), 100*rw.failShare(), rw.lateP99(), rw.inflightQ[0], rw.inflightQ[3])
			ok = rw.meets()
		}
		if !ok {
			break
		}
		best = rate
	}
	return best
}

// newServer builds the serving stack: the trace, models trained on its
// first third (as cmd/rcsched does), the store, a push-mode client, the
// tier, and the republisher; then warms it up.
func (b *bench) newServer(reg *obs.Registry) (*server, error) {
	cols, dep, err := b.deployTrace(reg)
	if err != nil {
		return nil, err
	}
	tier, err := serve.New(serve.Config{Upstream: dep.client, Obs: reg})
	if err != nil {
		dep.client.Close()
		return nil, err
	}
	s := &server{dep: dep, tier: tier, pop: population(cols, servePopulation), reg: reg}
	for _, m := range metric.All {
		s.models = append(s.models, m.String())
	}
	b.runWindow(s, serveRate, serveWarmup, 1<<32, 0)
	return s, nil
}

// population samples n distinct inputs strided across the trace, as
// rcload's buildPopulation does.
func population(cols *trace.Columns, n int) []model.ClientInputs {
	stride := max(1, cols.Len()/n)
	pop := make([]model.ClientInputs, 0, n)
	var v trace.VM
	for i := 0; i < cols.Len() && len(pop) < n; i += stride {
		cols.VMAt(i, &v)
		pop = append(pop, model.FromVM(&v, 1+i%4))
	}
	return pop
}

// republish re-runs pipeline.Publish every serveRepublish, half a period
// after the window starts, until stop closes; the fixed phase gives every
// sub-window and ladder rung the same write load.
func (s *server) republish(b *bench, start time.Time, stop <-chan struct{}) {
	for next := start.Add(serveRepublish / 2); ; next = next.Add(serveRepublish) {
		t := time.NewTimer(time.Until(next))
		select {
		case <-stop:
			t.Stop()
			return
		case <-t.C:
		}
		id := b.spans.begin("serve.republish", "store", 0)
		pubStart := time.Now()
		err := pipeline.Publish(s.dep.st, s.dep.res, s.reg)
		d := time.Since(pubStart)
		b.spans.end(id)
		s.pubMu.Lock()
		s.pubDurs = append(s.pubDurs, d.Seconds())
		if err != nil {
			s.pubErrors++
		}
		s.pubMu.Unlock()
	}
}

func (s *server) publishErrors() error {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	if s.pubErrors > 0 {
		return fmt.Errorf("%d republishes failed", s.pubErrors)
	}
	return nil
}

func (s *server) close() {
	s.tier.Close()
	s.dep.client.Close()
}

// nominalWindow measures the nominal rate. A window whose generator ran
// too late to measure the server is repeated, at most twice; the least
// late window is returned.
func (b *bench) nominalWindow(srv *server) *window {
	var best *window
	for try := uint64(0); try < 3; try++ {
		w := b.runWindow(srv, serveRate, b.seconds, try, 0)
		p50, p99 := w.subQuantiles()
		fmt.Fprintf(os.Stderr, "perfbench: nominal window: p50 %.3f ms, p99 %.3f ms, failed %d of %d, generator late p99 %.3f ms, peak in flight %d, %.2f CPU µs/request\n",
			p50, p99, w.failed, len(w.reqs), w.lateP99(), w.peak, 1e6*w.cpuPerReq())
		if best == nil || w.lateP99() < best.lateP99() {
			best = w
		}
		if w.valid() {
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: generator late p99 %.2f ms > %.2f ms: window invalid\n", w.lateP99(), serveLateLimit)
	}
	return best
}

// runWindow runs the open-loop generator at rate for d: one goroutine
// draws Poisson arrivals and request contents from the seed and hands
// each to its own goroutine, with at most serveMaxInFlight outstanding.
func (b *bench) runWindow(srv *server, rate float64, d time.Duration, stream uint64, parent int) *window {
	rng := rand.New(rand.NewPCG(b.seed, stream))
	expect := rate * d.Seconds()
	w := &window{rate: rate, reqs: make([]request, 0, int(expect+10*math.Sqrt(expect)+100))}
	ctx, cancel := context.WithTimeout(context.Background(), d+serveTimeout)
	defer cancel()
	sem := make(chan struct{}, serveMaxInFlight)
	var inflight atomic.Int64
	var wg sync.WaitGroup
	var qSum [4]float64
	var qN [4]int
	late := make([]float64, 0, cap(w.reqs))

	runtime.GC() // settle the previous window's garbage before timing
	cpu0 := cpuTime()
	start := time.Now()
	stopPub := make(chan struct{})
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		srv.republish(b, start, stopPub)
	}()
	next := start
	for len(w.reqs) < cap(w.reqs) {
		next = next.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if next.Sub(start) >= d {
			break
		}
		// time.Sleep wakes through the runtime's millisecond-granular
		// poller, about 1 ms late on this kind of host; nanosleep(2)
		// blocks only this thread and wakes within tens of µs, without
		// spinning a core away from the server.
		if wait := time.Until(next); wait > 0 {
			ts := syscall.NsecToTimespec(int64(wait))
			_ = syscall.Nanosleep(&ts, nil) // an early wake-up only makes this arrival late
		}
		late = append(late, float64(time.Since(next))/1e6)
		r := request{model: uint8(rng.IntN(len(srv.models)))}
		switch u := rng.Float64(); {
		case u < serveBatchShare:
			r.class = classBatch
			r.items = make([]int32, serveBatchSize)
			for k := range r.items {
				r.items[k] = srv.draw(rng, rng.Float64() < serveHotShare)
			}
		case u < serveBatchShare+serveHotShare:
			r.class, r.input = classHot, srv.draw(rng, true)
		default:
			r.class, r.input = classCold, srv.draw(rng, false)
		}
		r.sched = next.Sub(start)
		w.reqs = append(w.reqs, r)
		i := len(w.reqs) - 1
		n := inflight.Load()
		q := min(3, int(4*next.Sub(start)/d))
		qSum[q] += float64(n)
		qN[q]++
		select {
		case sem <- struct{}{}:
		default:
			w.reqs[i].out = outDropped
			continue
		}
		if n+1 > w.peak {
			w.peak = n + 1
		}
		inflight.Add(1)
		wg.Add(1)
		go func(r *request, at time.Time) {
			defer wg.Done()
			srv.do(ctx, b, r, at, parent)
			inflight.Add(-1)
			<-sem
		}(&w.reqs[i], next)
	}
	close(stopPub)
	wg.Wait()
	pubWG.Wait()
	w.elapsed = time.Since(start)
	w.cpu = cpuTime() - cpu0
	for q := range qSum {
		w.inflightQ[q] = qSum[q] / float64(max(1, qN[q]))
	}
	w.lat = make([]float64, len(w.reqs))
	for i := range w.reqs {
		w.lat[i] = w.reqs[i].latMs()
		if w.reqs[i].failed() {
			w.failed++
		}
	}
	sort.Float64s(w.lat)
	sort.Float64s(late)
	w.late = late
	return w
}

// draw picks a hot or cold population index.
func (s *server) draw(rng *rand.Rand, hot bool) int32 {
	if hot {
		return int32(rng.IntN(serveHotKeys))
	}
	return int32(rng.IntN(len(s.pop)))
}

// do issues one request and records its outcome.
func (s *server) do(ctx context.Context, b *bench, r *request, at time.Time, parent int) {
	id := b.spans.begin("serve."+classNames[r.class], "serve", parent)
	defer b.spans.end(id)
	name := s.models[r.model]
	if r.class != classBatch {
		res, err := s.tier.Predict(ctx, name, &s.pop[r.input])
		r.lat = time.Since(at)
		switch {
		case err != nil:
			r.out = outError
		case res.Degraded:
			r.out = outDegraded
		case !res.OK:
			r.out = outNoPred
		default:
			r.out, r.bucket, r.score = outOK, int32(res.Bucket), res.Score
		}
		return
	}
	ins := make([]*model.ClientInputs, len(r.items))
	for k, idx := range r.items {
		ins[k] = &s.pop[idx]
	}
	res, err := s.tier.PredictBatch(ctx, name, ins)
	r.lat = time.Since(at)
	if err != nil {
		r.out = outError
		return
	}
	r.out = outOK
	for _, x := range res {
		if x.Degraded {
			r.out = outDegraded
		} else if !x.OK {
			r.noPred++
		}
	}
}

// serveChecks compares the tier's answers with a serial PredictSingle on
// a second client initialized from the same store: a fixed sample of OK
// answers must match exactly, and so must the no-prediction count over
// every answered request.
func (b *bench) serveChecks(srv *server, w *window) {
	ref, err := newClient(srv.dep.st, nil)
	if b.op("reference client", err) != nil {
		return
	}
	defer ref.Close()
	type key struct {
		model uint8
		input int32
	}
	memo := map[key]core.Prediction{}
	predict := func(m uint8, in int32) (core.Prediction, error) {
		k := key{m, in}
		if p, ok := memo[k]; ok {
			return p, nil
		}
		p, err := ref.PredictSingle(srv.models[m], &srv.pop[in])
		if err == nil {
			memo[k] = p
		}
		return p, err
	}
	var tierNoPred, refNoPred, sampled, mismatched int
	var firstErr error
	for i := range w.reqs {
		r := &w.reqs[i]
		if r.out != outOK && r.out != outNoPred {
			continue
		}
		if r.class == classBatch {
			tierNoPred += int(r.noPred)
			for _, in := range r.items {
				p, err := predict(r.model, in)
				firstErr = cmp.Or(firstErr, err)
				if !p.OK {
					refNoPred++
				}
			}
			continue
		}
		p, err := predict(r.model, r.input)
		firstErr = cmp.Or(firstErr, err)
		if r.out == outNoPred {
			tierNoPred++
		}
		if !p.OK {
			refNoPred++
		}
		if r.out == outOK && i%serveCheckEvery == 0 {
			sampled++
			if !p.OK || int32(p.Bucket) != r.bucket || p.Score != r.score {
				mismatched++
			}
		}
	}
	b.check("serve reference client", firstErr == nil, "%v", firstErr)
	b.check("serve answers", sampled > 0 && mismatched == 0, "%d of %d sampled answers differ from the serial reference", mismatched, sampled)
	b.check("serve no-prediction share", tierNoPred == refNoPred,
		"tier answered %d no-predictions, serial reference %d", tierNoPred, refNoPred)
	b.res.Attempted += int64(len(w.reqs))
	b.res.Failed += int64(w.failed)
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// serveTraced runs one untraced and one traced nominal window over the
// instrumented stack and reports the per-layer metrics; the latencies
// only this workload has go to the details.
func (b *bench) serveTraced(srv *server, rec *spanRecorder, reg *obs.Registry) error {
	b.spans = nil
	a0 := allocBytes()
	h0 := runtimeHists()
	ref := b.runWindow(srv, serveRate, b.seconds, 0, 0)
	h1 := runtimeHists()
	b.detail("runtime.sched_latency_p99_ms", 1e3*histDeltaQuantile(h0[0].Value.Float64Histogram(), h1[0].Value.Float64Histogram(), 0.99), "ms")
	b.detail("runtime.gc_pause_p99_ms", 1e3*histDeltaQuantile(h0[1].Value.Float64Histogram(), h1[1].Value.Float64Histogram(), 0.99), "ms")
	b.metric("alloc_mb", (allocBytes()-a0)/(1<<20), "MB")

	b.spans = rec
	path, err := b.outPath("cpu", "pprof")
	if err != nil {
		return err
	}
	before := snapshotCounters(reg)
	prof, err := startProfiler()
	if err != nil {
		return err
	}
	root := rec.begin("serve.window", "bench", 0)
	w := b.runWindow(srv, serveRate, b.seconds, 0, root)
	rec.end(root)
	if err := prof.stop(b, path); err != nil {
		return err
	}
	delta := snapshotCounters(reg).sub(before)

	b.metric("trace_overhead", w.cpuPerReq()/ref.cpuPerReq(), "ratio")
	b.deployMetrics(rec, reg, srv.dep)
	b.passMetrics(delta)

	_, p99 := ref.subQuantiles()
	b.detail("serve_p99_ms", p99, "ms")
	valid := 0.0
	if ref.valid() {
		valid = 1
	}
	b.detail("serve.window_valid", valid, "bool")
	b.detail("gen.late_p99_ms", ref.lateP99(), "ms")
	for c := 0; c < numClasses; c++ {
		var lat []float64
		for i := range ref.reqs {
			if int(ref.reqs[i].class) == c {
				lat = append(lat, ref.reqs[i].latMs())
			}
		}
		sort.Float64s(lat)
		b.detail("serve.class."+classNames[c]+".p99_ms", quantileSorted(lat, 0.99), "ms")
	}
	wait, up := delta.h["rc_serve_batch_wait_seconds"], delta.h["rc_serve_upstream_seconds"]
	b.detail("serve.batch_wait_p50_ms", 1e3*wait.Quantile(0.5), "ms")
	b.detail("serve.batch_wait_p99_ms", 1e3*wait.Quantile(0.99), "ms")
	b.detail("serve.upstream_p50_ms", 1e3*up.Quantile(0.5), "ms")
	b.detail("serve.upstream_p99_ms", 1e3*up.Quantile(0.99), "ms")
	b.detail("core.model_exec_p99_us", 1e6*delta.h[core.MetricModelExecSeconds].Quantile(0.99), "us")
	srv.pubMu.Lock()
	b.detail("serve.republish_s", median(srv.pubDurs), "s")
	srv.pubMu.Unlock()

	b.spans = nil
	b.genMetrics(ref, b.maxQPS(srv))
	b.spans = rec
	return b.finishTrace(root)
}

// genMetrics reports the generator's peak in-flight count and achieved
// share of the nominal rate in the reference window w, and serve_max_qps;
// workloads without a generator pass nil and report zeros.
func (b *bench) genMetrics(w *window, maxQPS float64) {
	var peak, achieved float64
	if w != nil {
		peak = float64(w.peak)
		achieved = float64(len(w.reqs)) / w.elapsed.Seconds() / serveRate
	}
	b.metric("gen.inflight_peak", peak, "count")
	b.metric("gen.achieved_ratio", achieved, "ratio")
	b.metric("serve_max_qps", maxQPS, "req/s")
}

// counters is a snapshot of a registry's counters and histograms. A
// counter is summed over its labels under its name, and kept per label
// under "name/key=value"; histograms are merged over labels.
type counters struct {
	v map[string]float64
	h map[string]obs.HistSnapshot
}

func snapshotCounters(reg *obs.Registry) counters {
	c := counters{v: map[string]float64{}, h: map[string]obs.HistSnapshot{}}
	for _, f := range reg.Gather() {
		for _, s := range f.Samples {
			switch {
			case f.Kind == obs.KindCounter:
				c.v[f.Name] += s.Value
				for _, l := range s.Labels {
					c.v[f.Name+"/"+l.Key+"="+l.Value] += s.Value
				}
			case s.Histogram == nil:
			case c.h[f.Name].Bounds == nil:
				c.h[f.Name] = *s.Histogram
			default:
				if m, err := c.h[f.Name].Merge(*s.Histogram); err == nil {
					c.h[f.Name] = m
				}
			}
		}
	}
	return c
}

// sub returns the counts accumulated since before.
func (c counters) sub(before counters) counters {
	out := counters{v: map[string]float64{}, h: map[string]obs.HistSnapshot{}}
	for k, v := range c.v {
		out.v[k] = v - before.v[k]
	}
	for k, h := range c.h {
		b, ok := before.h[k]
		if !ok || len(b.Counts) != len(h.Counts) {
			out.h[k] = h
			continue
		}
		d := obs.HistSnapshot{Bounds: h.Bounds, Counts: make([]uint64, len(h.Counts)), Count: h.Count - b.Count, Sum: h.Sum - b.Sum}
		for i := range h.Counts {
			d.Counts[i] = h.Counts[i] - b.Counts[i]
		}
		out.h[k] = d
	}
	return out
}
