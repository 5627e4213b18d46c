package trace

import (
	"bytes"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestVMTypePartyRoundTrip(t *testing.T) {
	for _, vt := range []VMType{IaaS, PaaS} {
		got, err := ParseVMType(vt.String())
		if err != nil || got != vt {
			t.Errorf("ParseVMType(%q) = %v, %v", vt.String(), got, err)
		}
	}
	for _, p := range []Party{FirstParty, ThirdParty} {
		got, err := ParseParty(p.String())
		if err != nil || got != p {
			t.Errorf("ParseParty(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseVMType("bogus"); err == nil {
		t.Error("expected error")
	}
	if _, err := ParseParty("bogus"); err == nil {
		t.Error("expected error")
	}
}

func TestUtilKindRoundTrip(t *testing.T) {
	for _, k := range []UtilKind{UtilFlat, UtilDiurnal, UtilBursty, UtilRamp, UtilIdle} {
		got, err := ParseUtilKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseUtilKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseUtilKind("bogus"); err == nil {
		t.Error("expected error")
	}
}

func TestLifetime(t *testing.T) {
	v := VM{Created: 100, Deleted: 400}
	lt, ok := v.Lifetime()
	if !ok || lt != 300 {
		t.Errorf("lifetime = %v, %v", lt, ok)
	}
	v.Deleted = NoEnd
	if _, ok := v.Lifetime(); ok {
		t.Error("expected no lifetime for running VM")
	}
}

func TestAliveAt(t *testing.T) {
	v := VM{Created: 10, Deleted: 20}
	cases := []struct {
		t    Minutes
		want bool
	}{{5, false}, {10, true}, {15, true}, {20, false}, {25, false}}
	for _, c := range cases {
		if got := v.AliveAt(c.t); got != c.want {
			t.Errorf("AliveAt(%d) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestCoreHours(t *testing.T) {
	v := VM{Cores: 4, Created: 0, Deleted: 120}
	if got := v.CoreHours(1000); got != 8 {
		t.Errorf("core hours = %v, want 8", got)
	}
	// Clipped by horizon.
	if got := v.CoreHours(60); got != 4 {
		t.Errorf("clipped core hours = %v, want 4", got)
	}
	// Created after horizon.
	v2 := VM{Cores: 1, Created: 100, Deleted: 200}
	if got := v2.CoreHours(50); got != 0 {
		t.Errorf("out-of-window core hours = %v, want 0", got)
	}
}

func TestUtilModelDeterministic(t *testing.T) {
	m := UtilModel{Kind: UtilBursty, Base: 20, Amplitude: 50, NoiseSD: 5, SpikeProb: 0.1, Seed: 42}
	for _, tm := range []Minutes{0, 5, 1440, 99995} {
		a1, b1, c1 := m.At(tm)
		a2, b2, c2 := m.At(tm)
		if a1 != a2 || b1 != b2 || c1 != c2 {
			t.Fatalf("non-deterministic at t=%d", tm)
		}
	}
}

func TestUtilModelOrderInvariant(t *testing.T) {
	m := UtilModel{Kind: UtilDiurnal, Base: 30, Amplitude: 40, NoiseSD: 3, Seed: 7}
	// Access out of order, then in order; values must match.
	_, fwd, _ := m.At(500)
	m.At(123456)
	m.At(0)
	_, again, _ := m.At(500)
	if fwd != again {
		t.Error("utilization depends on access order")
	}
}

func TestUtilModelBoundsAndOrdering(t *testing.T) {
	models := []UtilModel{
		{Kind: UtilFlat, Base: 50, NoiseSD: 30, Seed: 1},
		{Kind: UtilDiurnal, Base: 10, Amplitude: 80, NoiseSD: 10, Seed: 2},
		{Kind: UtilBursty, Base: 5, Amplitude: 90, SpikeProb: 0.3, NoiseSD: 5, Seed: 3},
		{Kind: UtilRamp, Base: 0, Amplitude: 100, RampLifetime: 10000, NoiseSD: 2, Seed: 4},
		{Kind: UtilIdle, Base: 1, NoiseSD: 1, Seed: 5},
	}
	for mi, m := range models {
		for tm := Minutes(0); tm < 3000; tm += 5 {
			min, avg, max := m.At(tm)
			if min < 0 || max > 100 || min > avg || avg > max {
				t.Fatalf("model %d t=%d: min=%v avg=%v max=%v violates 0<=min<=avg<=max<=100",
					mi, tm, min, avg, max)
			}
		}
	}
}

func TestUtilModelDiurnalHasDailyCycle(t *testing.T) {
	m := UtilModel{Kind: UtilDiurnal, Base: 20, Amplitude: 60, NoiseSD: 0, Seed: 9}
	_, trough, _ := m.At(0)
	_, peak, _ := m.At(12 * 60)
	if peak-trough < 50 {
		t.Errorf("diurnal swing too small: trough=%v peak=%v", trough, peak)
	}
	// One full day later the value repeats exactly (no noise).
	_, again, _ := m.At(24 * 60)
	if math.Abs(trough-again) > 1e-12 {
		t.Errorf("not periodic: %v vs %v", trough, again)
	}
}

func TestUtilModelBurstySpikeRate(t *testing.T) {
	m := UtilModel{Kind: UtilBursty, Base: 10, Amplitude: 70, SpikeProb: 0.2, NoiseSD: 0, Seed: 11}
	spikes := 0
	n := 20000
	for i := 0; i < n; i++ {
		_, avg, _ := m.At(Minutes(i * 5))
		if avg > 50 {
			spikes++
		}
	}
	rate := float64(spikes) / float64(n)
	if math.Abs(rate-0.2) > 0.02 {
		t.Errorf("spike rate = %v, want ~0.2", rate)
	}
}

func TestSummaryStats(t *testing.T) {
	v := VM{
		Cores:   2,
		Created: 0,
		Deleted: 1440,
		Util:    UtilModel{Kind: UtilFlat, Base: 40, NoiseSD: 0, Seed: 1},
	}
	avg, p95 := SummaryStats(&v, 100000)
	if math.Abs(avg-40) > 1e-9 {
		t.Errorf("avg = %v, want 40", avg)
	}
	if p95 < 40 || p95 > 50 {
		t.Errorf("p95 = %v, want within spread above 40", p95)
	}
}

func TestSummaryStatsEmptyWindow(t *testing.T) {
	v := VM{Created: 100, Deleted: 200}
	avg, p95 := SummaryStats(&v, 50)
	if avg != 0 || p95 != 0 {
		t.Errorf("out-of-window stats = %v, %v", avg, p95)
	}
}

func TestAvgSeriesLength(t *testing.T) {
	v := VM{Created: 0, Deleted: 100, Util: UtilModel{Kind: UtilFlat, Base: 10}}
	s := AvgSeries(&v, 1000)
	if len(s) != 20 {
		t.Errorf("series length = %d, want 20", len(s))
	}
	// Horizon clipping.
	s = AvgSeries(&v, 50)
	if len(s) != 10 {
		t.Errorf("clipped length = %d, want 10", len(s))
	}
	if AvgSeries(&VM{Created: 100, Deleted: 200}, 50) != nil {
		t.Error("expected nil series outside window")
	}
}

func TestQuickSelectMatchesSort(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.IntN(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		k := int(math.Ceil(0.95*float64(n))) - 1
		if k < 0 {
			k = 0
		}
		got := quickP95(append([]float64(nil), xs...))
		if got != sorted[k] {
			t.Fatalf("trial %d: quickP95 = %v, want %v", trial, got, sorted[k])
		}
	}
}

func TestSubscriptionsGrouping(t *testing.T) {
	tr := &Trace{VMs: []VM{
		{ID: 1, Subscription: "a"},
		{ID: 2, Subscription: "b"},
		{ID: 3, Subscription: "a"},
	}}
	subs := tr.Subscriptions()
	if len(subs) != 2 || len(subs["a"]) != 2 || len(subs["b"]) != 1 {
		t.Errorf("subscriptions = %v", subs)
	}
}

func sampleTrace() *Trace {
	return &Trace{
		Horizon: 10000,
		VMs: []VM{
			{
				ID: 1, Subscription: "sub-1", Deployment: "dep-1", Region: "region-0", Role: "IaaS", OS: "linux",
				Type: IaaS, Party: ThirdParty, Production: true,
				Cores: 2, MemoryGB: 3.5, Created: 0, Deleted: 500,
				Util: UtilModel{Kind: UtilDiurnal, Base: 20, Amplitude: 50, NoiseSD: 4, PhaseMin: 60, Seed: 77},
			},
			{
				ID: 2, Subscription: "sub-2", Deployment: "dep-2", Region: "region-1", Role: "WebRole", OS: "windows",
				Type: PaaS, Party: FirstParty, Production: false,
				Cores: 1, MemoryGB: 0.75, Created: 100, Deleted: NoEnd,
				Util: UtilModel{Kind: UtilBursty, Base: 5, Amplitude: 80, SpikeProb: 0.05, NoiseSD: 2, Seed: 78},
			},
		},
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Horizon != tr.Horizon {
		t.Errorf("horizon = %d, want %d", got.Horizon, tr.Horizon)
	}
	if len(got.VMs) != len(tr.VMs) {
		t.Fatalf("vm count = %d, want %d", len(got.VMs), len(tr.VMs))
	}
	for i := range tr.VMs {
		if got.VMs[i] != tr.VMs[i] {
			t.Errorf("vm %d mismatch:\n got %+v\nwant %+v", i, got.VMs[i], tr.VMs[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	bad := []string{
		"",                       // empty
		"nota,horizon\n",         // missing #horizon
		"#horizon,xyz\n",         // bad horizon number
		"#horizon,10\nonlyone\n", // truncated header (1 field vs 19)
	}
	for i, s := range bad {
		if _, err := ReadCSV(strings.NewReader(s)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestReadCSVRowNumberInErrors(t *testing.T) {
	header := "#horizon,10\n" + strings.Join(vmHeader, ",") + "\n"
	good := "1,s,d,rg,r,os,IaaS,third,true,2,3.5,0,500,diurnal,20,50,4,60,0,77,0\n"
	badType := "9,s,d,rg,r,os,Bogus,third,true,2,3.5,0,500,diurnal,20,50,4,60,0,77,0\n"
	badCores, badFields := strings.Replace(good, ",2,3.5,", ",two,3.5,", 1), "just,three,fields\n"
	cases := []struct {
		name, input, wantSub string
	}{
		{"bad row 1", header + badType, "vm row 1:"},
		{"bad row 2", header + good + badType, "vm row 2:"},
		{"bad row 3", header + good + good + badCores, "vm row 3:"},
		{"wrong field count row 2", header + good + badFields, "vm row 2:"},
	}
	for _, c := range cases {
		_, err := ReadCSV(strings.NewReader(c.input))
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not name %q", c.name, err, c.wantSub)
		}
	}
}

func TestReadCSVBadRow(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	corrupted := strings.Replace(buf.String(), "IaaS,third", "Bogus,third", 1)
	if _, err := ReadCSV(strings.NewReader(corrupted)); err == nil {
		t.Error("expected error on corrupted type column")
	}
}

func TestWriteReadingsCSV(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteReadingsCSV(&buf, tr, []int{0}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// header + 500/5 readings
	if len(lines) != 1+100 {
		t.Errorf("line count = %d, want 101", len(lines))
	}
	if err := WriteReadingsCSV(&buf, tr, []int{99}); err == nil {
		t.Error("expected error for out-of-range index")
	}
}

// Property: CSV round trip preserves any valid VM.
func TestQuickCSVRoundTrip(t *testing.T) {
	f := func(id int64, cores uint8, mem uint16, created, life uint32, seed uint64) bool {
		v := VM{
			ID: id, Subscription: "s", Deployment: "d", Region: "rg", Role: "r", OS: "os",
			Type: PaaS, Party: FirstParty, Production: true,
			Cores: int(cores%64) + 1, MemoryGB: float64(mem%1024) + 0.5,
			Created: Minutes(created), Deleted: Minutes(created) + Minutes(life) + 1,
			Util: UtilModel{Kind: UtilFlat, Base: 42, Seed: seed},
		}
		tr := &Trace{Horizon: 1, VMs: []VM{v}}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tr); err != nil {
			return false
		}
		got, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		return len(got.VMs) == 1 && got.VMs[0] == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: utilization invariants hold for arbitrary model parameters.
func TestQuickUtilModelInvariants(t *testing.T) {
	f := func(kind uint8, base, amp, noise float64, seed uint64, tm uint32) bool {
		m := UtilModel{
			Kind:         UtilKind(kind % 5),
			Base:         math.Mod(math.Abs(base), 100),
			Amplitude:    math.Mod(math.Abs(amp), 100),
			NoiseSD:      math.Mod(math.Abs(noise), 30),
			SpikeProb:    0.1,
			Seed:         seed,
			RampLifetime: 1000,
		}
		if math.IsNaN(m.Base) || math.IsNaN(m.Amplitude) || math.IsNaN(m.NoiseSD) {
			return true
		}
		min, avg, max := m.At(Minutes(tm))
		return min >= 0 && min <= avg && avg <= max && max <= 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// utilTestModels spans all five UtilKinds with random parameters, plus
// the edge shapes (no noise, no spikes, no ramp) the formula branches on.
func utilTestModels(r *rand.Rand, n int) []UtilModel {
	var models []UtilModel
	for i := 0; i < n; i++ {
		for kind := UtilFlat; kind <= UtilIdle; kind++ {
			m := UtilModel{
				Kind:         kind,
				Base:         100 * r.Float64(),
				Amplitude:    100 * r.Float64(),
				NoiseSD:      30 * r.Float64(),
				PhaseMin:     r.Int64N(2 * minutesPerDay),
				SpikeProb:    r.Float64(),
				Seed:         r.Uint64(),
				RampLifetime: r.Int64N(20000),
			}
			if i%4 == 0 {
				m.NoiseSD, m.SpikeProb = 0, 0
			}
			models = append(models, m)
		}
	}
	return models
}

// MaxAt must return exactly At's max — bit for bit — for every kind,
// over random seeds and times, with one tick shared across models the
// way the simulator's replay shares it.
func TestUtilModelMaxAtMatchesAt(t *testing.T) {
	r := rand.New(rand.NewPCG(12, 34))
	models := utilTestModels(r, 40)
	for trial := 0; trial < 300; trial++ {
		tm := Minutes(r.Int64N(60 * minutesPerDay))
		if trial%3 == 0 {
			tm -= tm % ReadingIntervalMin
		}
		tk := NewUtilTick(tm)
		for i := range models {
			m := &models[i]
			_, _, want := m.At(tm)
			if got := m.MaxAt(&tk); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v at %d: MaxAt %v, At max %v", *m, tm, got, want)
			}
		}
	}
}

// At's output is pinned bit for bit: a digest of (min, avg, max) over
// every kind, random parameters and times, captured before At and MaxAt
// were folded onto one shared formula. Every paper number downstream
// (EXPERIMENTS.md, the simulator goldens) depends on these bits.
func TestUtilModelAtPinned(t *testing.T) {
	r := rand.New(rand.NewPCG(56, 78))
	models := utilTestModels(r, 20)
	var h uint64 = 14695981039346656037
	for trial := 0; trial < 200; trial++ {
		tm := Minutes(r.Int64N(60 * minutesPerDay))
		for i := range models {
			min, avg, max := models[i].At(tm)
			for _, x := range []float64{min, avg, max} {
				h = (h ^ math.Float64bits(x)) * 1099511628211
			}
		}
	}
	const want = 0xd4c97e3b40deb14f
	if h != want {
		t.Errorf("At digest = %#x, want %#x", h, uint64(want))
	}
}

// P95MaxBuf must return SummaryStats' p95 bit for bit, including empty
// and horizon-clipped windows, while reusing its scratch buffer.
func TestP95MaxBufMatchesSummaryStats(t *testing.T) {
	r := rand.New(rand.NewPCG(90, 12))
	models := utilTestModels(r, 10)
	var buf []float64
	for trial := 0; trial < 400; trial++ {
		created := Minutes(r.Int64N(20 * minutesPerDay))
		v := VM{
			Created: created,
			Deleted: created + Minutes(r.Int64N(3*minutesPerDay)),
			Util:    models[trial%len(models)],
		}
		horizon := Minutes(r.Int64N(25 * minutesPerDay))
		_, want := SummaryStats(&v, horizon)
		var got float64
		got, buf = P95MaxBuf(&v, horizon, buf)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d %+v horizon %d: P95MaxBuf %v, SummaryStats %v", trial, v, horizon, got, want)
		}
	}
}
