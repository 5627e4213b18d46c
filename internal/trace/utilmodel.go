package trace

import (
	"fmt"
	"math"
)

// UtilKind names the shape of a VM's utilization time series.
type UtilKind int

// Utilization shapes. Diurnal models interactive workloads with a daily
// cycle; Flat models steady background services; Bursty models batch
// workloads with random spikes; Ramp models jobs whose demand grows over
// their lifetime; Idle models the first-party VM-creation-test workloads
// described in Section 3.2 (created and quickly killed, doing no work).
const (
	UtilFlat UtilKind = iota
	UtilDiurnal
	UtilBursty
	UtilRamp
	UtilIdle
)

// String implements fmt.Stringer.
func (k UtilKind) String() string {
	switch k {
	case UtilFlat:
		return "flat"
	case UtilDiurnal:
		return "diurnal"
	case UtilBursty:
		return "bursty"
	case UtilRamp:
		return "ramp"
	case UtilIdle:
		return "idle"
	default:
		return fmt.Sprintf("UtilKind(%d)", int(k))
	}
}

// ParseUtilKind parses the String form.
func ParseUtilKind(s string) (UtilKind, error) {
	for _, k := range []UtilKind{UtilFlat, UtilDiurnal, UtilBursty, UtilRamp, UtilIdle} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown util kind %q", s)
}

// UtilModel is a compact deterministic generator of 5-minute utilization
// readings. Given the same parameters, At(t) always returns the same
// values, for any t in any order — noise comes from a counter-based hash of
// (Seed, t), not from sequential PRNG state. All levels are percentages of
// the VM's CPU allocation in [0, 100].
type UtilModel struct {
	Kind UtilKind
	// Base is the baseline average utilization level.
	Base float64
	// Amplitude is the peak-to-baseline swing for the diurnal shape, or
	// the spike height for the bursty shape, or the total rise for ramps.
	Amplitude float64
	// NoiseSD is the standard deviation of per-interval Gaussian noise.
	NoiseSD float64
	// PhaseMin shifts the diurnal cycle (minutes).
	PhaseMin int64
	// SpikeProb is the per-interval probability of a spike (bursty only).
	SpikeProb float64
	// Seed decorrelates VMs with identical parameters.
	Seed uint64
	// RampLifetime is the lifetime over which a ramp rises (minutes);
	// zero disables the ramp term even for UtilRamp.
	RampLifetime int64
}

const minutesPerDay = 24 * 60

// At returns the (min, avg, max) utilization over the 5-minute interval
// starting at minute t. Values are clamped to [0, 100].
func (m *UtilModel) At(t Minutes) (min, avg, max float64) {
	var tk UtilTick
	tk.set(t, m.Kind == UtilBursty)
	avg, max, spread := m.avgMax(&tk)
	min = clampPct(avg - spread*(0.5+0.5*hashFloat(m.Seed, uint64(t), streamMinSpread)))
	if min > avg {
		min = avg
	}
	return min, avg, max
}

// MaxAt returns the max At(t) returns for the interval tk was built for,
// without drawing the min stream. Callers evaluating many models at one
// time share a single tick.
//
//rcvet:hotpath
func (m *UtilModel) MaxAt(tk *UtilTick) float64 {
	_, max, _ := m.avgMax(tk)
	return max
}

// avgMax is the one utilization formula behind At and MaxAt: the
// interval average, the interval maximum, and the within-interval spread
// At's minimum reuses.
//
//rcvet:hotpath
func (m *UtilModel) avgMax(tk *UtilTick) (avg, max, spread float64) {
	t := tk.t
	level := m.Base
	switch m.Kind {
	case UtilDiurnal:
		phase := 2 * math.Pi * float64((int64(t)+m.PhaseMin)%minutesPerDay) / minutesPerDay
		// Peak mid-day: sin with a -pi/2 shift so minute 0 is the trough.
		level += m.Amplitude * (0.5 - 0.5*math.Cos(phase))
	case UtilBursty:
		if m.SpikeProb > 0 && unitHash(m.Seed, tk.spike) < m.SpikeProb {
			level += m.Amplitude
		}
	case UtilRamp:
		if m.RampLifetime > 0 {
			frac := float64(int64(t)%m.RampLifetime) / float64(m.RampLifetime)
			level += m.Amplitude * frac
		}
	case UtilIdle:
		level = m.Base // typically ~0-2%
	}
	noise := m.NoiseSD * normHash(m.Seed, tk.norm1, tk.norm2)
	avg = clampPct(level + noise)
	// Within-interval spread: max above avg, min below, each with its own
	// deterministic jitter. Bursty workloads additionally burn CPU in
	// sub-interval bursts, so their per-interval max frequently approaches
	// the full allocation even when the interval average stays low — the
	// low-average/high-P95 pattern of Section 3.2.
	spread = 4 + m.NoiseSD
	max = clampPct(avg + spread*(0.5+0.5*unitHash(m.Seed, tk.maxSpread)))
	if m.Kind == UtilBursty {
		u := unitHash(m.Seed, tk.burst)
		max = clampPct(max + m.Amplitude*u*u)
	}
	if max < avg {
		max = avg
	}
	return avg, max, spread
}

// Hash streams of the utilization formula; the noise normal draws two
// uniforms, streams streamNoise*2+101 and streamNoise*2+102.
const (
	streamSpike     = 1
	streamNoise     = 2
	streamMaxSpread = 3
	streamMinSpread = 4
	streamBurst     = 5
)

// UtilTick holds the seed-independent half of every hash MaxAt draws for
// the interval starting at one minute. hashFloat(seed, t, s) is
// splitmix64(seed ^ splitmix64(t ^ splitmix64(s))), so the inner prefix
// depends only on (t, s): a tick computes it once per interval and every
// model evaluated at that time reuses it.
type UtilTick struct {
	t                       Minutes
	spike, maxSpread, burst uint64
	norm1, norm2            uint64
}

// NewUtilTick precomputes the hash prefixes of the interval starting at
// minute t.
func NewUtilTick(t Minutes) UtilTick {
	var tk UtilTick
	tk.set(t, true)
	return tk
}

// set fills tk for minute t, skipping the two bursty-only prefixes when
// bursty is false; avgMax reads them only for bursty models.
func (tk *UtilTick) set(t Minutes, bursty bool) {
	u := uint64(t)
	tk.t = t
	tk.maxSpread = hashPrefix(u, streamMaxSpread)
	tk.norm1 = hashPrefix(u, streamNoise*2+101)
	tk.norm2 = hashPrefix(u, streamNoise*2+102)
	if bursty {
		tk.spike = hashPrefix(u, streamSpike)
		tk.burst = hashPrefix(u, streamBurst)
	}
}

func clampPct(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 100 {
		return 100
	}
	return x
}

// splitmix64 is the standard 64-bit finalizer used as a counter-based hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashFloat maps (seed, t, stream) to a uniform float64 in [0, 1).
func hashFloat(seed, t, stream uint64) float64 {
	return unitHash(seed, hashPrefix(t, stream))
}

// hashPrefix is the seed-independent inner half of hashFloat.
func hashPrefix(t, stream uint64) uint64 {
	return splitmix64(t ^ splitmix64(stream))
}

// unitHash finishes hashFloat from its prefix.
func unitHash(seed, prefix uint64) float64 {
	return float64(splitmix64(seed^prefix)>>11) / float64(1<<53)
}

// normHash maps a seed and two hash prefixes to a standard normal
// variate via Box-Muller on the two hashed uniforms.
func normHash(seed, prefix1, prefix2 uint64) float64 {
	u1 := unitHash(seed, prefix1)
	u2 := unitHash(seed, prefix2)
	for u1 == 0 {
		u1 = 0.5
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
