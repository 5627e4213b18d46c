package sim

import (
	"sync"

	"resourcecentral/internal/core"
	"resourcecentral/internal/metric"
	"resourcecentral/internal/model"
	"resourcecentral/internal/trace"
)

// ClientPredictor obtains P95-utilization predictions from the RC client
// library, exactly as the production scheduler would (Algorithm 1 line 9).
type ClientPredictor struct {
	Client *core.Client
}

// PredictP95Bucket implements Predictor.
func (p *ClientPredictor) PredictP95Bucket(v *trace.VM, requestedVMs int) (int, float64, bool) {
	in := model.FromVM(v, requestedVMs)
	pred, err := p.Client.PredictSingle(metric.P95CPU.String(), &in)
	if err != nil || !pred.OK {
		return 0, 0, false
	}
	return pred.Bucket, pred.Score, true
}

// ClientLifetimePredictor obtains lifetime predictions from the client
// library for the co-location extension.
type ClientLifetimePredictor struct {
	Client *core.Client
}

// PredictLifetimeBucket implements LifetimePredictor.
func (p *ClientLifetimePredictor) PredictLifetimeBucket(v *trace.VM, requestedVMs int) (int, float64, bool) {
	in := model.FromVM(v, requestedVMs)
	pred, err := p.Client.PredictSingle(metric.Lifetime.String(), &in)
	if err != nil || !pred.OK {
		return 0, 0, false
	}
	return pred.Bucket, pred.Score, true
}

// OracleLifetimePredictor predicts the true lifetime bucket.
type OracleLifetimePredictor struct {
	Horizon trace.Minutes
}

// PredictLifetimeBucket implements LifetimePredictor.
func (p *OracleLifetimePredictor) PredictLifetimeBucket(v *trace.VM, _ int) (int, float64, bool) {
	if v.Deleted > p.Horizon {
		return metric.Lifetime.Buckets() - 1, 1, true
	}
	life, ok := v.Lifetime()
	if !ok {
		return metric.Lifetime.Buckets() - 1, 1, true
	}
	return metric.Lifetime.Bucket(float64(life)), 1, true
}

// OraclePredictor always predicts the correct bucket (the paper's
// RC-soft-right configuration) by peeking at the VM's actual telemetry.
type OraclePredictor struct {
	Horizon trace.Minutes
	// UtilScale matches the simulation's utilization scaling so the
	// oracle stays "right" in the sensitivity studies.
	UtilScale float64
}

// PredictP95Bucket implements Predictor.
func (p *OraclePredictor) PredictP95Bucket(v *trace.VM, _ int) (int, float64, bool) {
	scale := p.UtilScale
	if scale == 0 {
		scale = 1
	}
	return metric.P95CPU.Bucket(truthP95(v, p.Horizon) * scale), 1, true
}

// WrongPredictor always predicts an incorrect random bucket (the paper's
// RC-soft-wrong configuration). The wrong bucket is a deterministic
// function of the VM id so runs are reproducible.
type WrongPredictor struct {
	Horizon trace.Minutes
}

// PredictP95Bucket implements Predictor.
func (p *WrongPredictor) PredictP95Bucket(v *trace.VM, _ int) (int, float64, bool) {
	truth := metric.P95CPU.Bucket(truthP95(v, p.Horizon))
	// Pick a pseudo-random bucket different from the truth.
	h := uint64(v.ID) * 0x9e3779b97f4a7c15
	offset := 1 + int((h>>33)%uint64(metric.P95CPU.Buckets()-1))
	return (truth + offset) % metric.P95CPU.Buckets(), 1, true
}

// maxesPool lends the truth predictors their per-call series of interval
// maxima. One predictor may serve several concurrent sweep points, so
// the scratch cannot live on the predictor itself.
var maxesPool = sync.Pool{New: func() any { return new([]float64) }}

// truthP95 is the VM's actual P95 of interval maxima over the window
// (trace.SummaryStats' p95Max, bit for bit), computed into pooled
// scratch.
func truthP95(v *trace.VM, horizon trace.Minutes) float64 {
	buf := maxesPool.Get().(*[]float64)
	p95, maxes := trace.P95MaxBuf(v, horizon, *buf)
	*buf = maxes
	maxesPool.Put(buf)
	return p95
}
