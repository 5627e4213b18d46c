package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

var testSpec = &spec{
	EndToEnd: []metricSpec{
		{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "acc_mean", Unit: "ratio", Better: "higher", Bound: 0.01},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	},
	PerLayer: []metricSpec{{Name: "ml.train_s.lifetime", Unit: "s", Better: "lower"}},
}

// jitter is a fixed ±2% pattern standing in for run-to-run noise.
var jitter = []float64{1.00, 1.02, 0.99, 0.98, 1.01, 1.00, 1.02, 0.99, 1.01, 0.98}

// runs builds ten collect.sh lines for the offline workload, scaling the
// named metric by scale[name]; rot shifts the noise pattern so the two
// sides of a pair never read exactly alike.
func runs(t *testing.T, rot int, scale map[string]float64) []run {
	t.Helper()
	var lines []string
	for i := range jitter {
		j := jitter[(i+rot)%len(jitter)]
		v := func(name string, base float64) float64 {
			if s, ok := scale[name]; ok {
				base *= s
			}
			return base * j
		}
		lines = append(lines, fmt.Sprintf(
			`{"workload":"offline","seed":%d,"trace":0,"result":{"correct":true,"attempted":10,"failed":0,"metrics":{"op_ms":{"value":%g,"unit":"ms"},"acc_mean":{"value":%g,"unit":"ratio"},"setup_s":{"value":%g,"unit":"s"}}}}`,
			i+1, v("op_ms", 15000), 0.9*(1+(j-1)/100), v("setup_s", 0.1)))
		lines = append(lines, fmt.Sprintf(
			`{"workload":"offline","seed":%d,"trace":1,"result":{"correct":true,"attempted":10,"failed":0,"metrics":{"ml.train_s.lifetime":{"value":%g,"unit":"s"}}}}`,
			i+1, v("ml.train_s.lifetime", 13)))
	}
	rs, err := parseRuns(strings.NewReader(strings.Join(lines, "\n")), "test")
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func verdicts(rows []row) map[string]string {
	out := map[string]string{}
	for _, r := range rows {
		out[r.Metric] = r.Verdict
	}
	return out
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles(1..10) = %v, want [2.75 5.5 8.25]", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got := quartiles([]float64{4, 1, 2}); got != [3]float64{1, 2, 4} {
		t.Errorf("quartiles(1,2,4) = %v, want [1 2 4]", got)
	}
}

func TestUnchangedPairIsWithinBound(t *testing.T) {
	rows, problems := compare(testSpec, runs(t, 0, nil), runs(t, 3, nil))
	if len(problems) > 0 {
		t.Fatalf("problems: %v", problems)
	}
	for _, r := range rows {
		if r.Verdict != withinBound && r.Verdict != info {
			t.Errorf("%s: verdict %q on identical code, want %q", r.Metric, r.Verdict, withinBound)
		}
	}
	if v := verdicts(rows)["ml.train_s.lifetime"]; v != info {
		t.Errorf("per-layer verdict %q, want %q", v, info)
	}
}

func TestCatchesDeliberateRegression(t *testing.T) {
	base := runs(t, 0, nil)
	rows, _ := compare(testSpec, base, runs(t, 3, map[string]float64{"op_ms": 1.3}))
	v := verdicts(rows)
	if v["op_ms"] != worse {
		t.Errorf("op_ms 30%% slower: verdict %q, want %q", v["op_ms"], worse)
	}
	if v["setup_s"] != withinBound {
		t.Errorf("setup_s unchanged: verdict %q, want %q", v["setup_s"], withinBound)
	}

	// A regression smaller than the bound is within it.
	rows, _ = compare(testSpec, base, runs(t, 3, map[string]float64{"op_ms": 1.05}))
	if v := verdicts(rows)["op_ms"]; v != withinBound {
		t.Errorf("op_ms 5%% slower with a 10%% bound: verdict %q, want %q", v, withinBound)
	}
}

func TestImprovementNeedsNineOfTenPairs(t *testing.T) {
	base := runs(t, 0, nil)
	rows, _ := compare(testSpec, base, runs(t, 3, map[string]float64{"op_ms": 0.8}))
	if v := verdicts(rows)["op_ms"]; v != improved {
		t.Errorf("op_ms 20%% faster: verdict %q, want %q", v, improved)
	}
	// 1% faster wins some pairs but not nine in ten.
	rows, _ = compare(testSpec, base, runs(t, 3, map[string]float64{"op_ms": 0.99}))
	if v := verdicts(rows)["op_ms"]; v != withinBound {
		t.Errorf("op_ms 1%% faster: verdict %q, want %q", v, withinBound)
	}
}

func TestWideSpreadIsUnresolved(t *testing.T) {
	a := runs(t, 0, nil)
	for i := range a {
		if a[i].Trace == 0 && i%4 == 0 {
			m := a[i].Result.Metrics["setup_s"]
			m.Value *= 3
			a[i].Result.Metrics["setup_s"] = m
		}
	}
	rows, _ := compare(testSpec, a, runs(t, 3, nil))
	if v := verdicts(rows)["setup_s"]; v != unresolved {
		t.Errorf("setup_s with a spread wider than its bound: verdict %q, want %q", v, unresolved)
	}
}

func TestFailuresAndIncorrectRunsAreProblems(t *testing.T) {
	b := runs(t, 3, nil)
	b[0].Result.Failed = 2
	b[2].Result.Correct = false
	_, problems := compare(testSpec, runs(t, 0, nil), b)
	if len(problems) != 2 {
		t.Fatalf("problems %v, want the extra failures and the incorrect run", problems)
	}
}

func TestParseRunsRejectsGarbage(t *testing.T) {
	if _, err := parseRuns(strings.NewReader("{\"workload\":\n"), "x"); err == nil {
		t.Error("truncated line parsed without error")
	}
	var r run
	if err := json.Unmarshal([]byte(`{"workload":"serve","seed":2,"trace":0,"result":{"correct":true,"attempted":1,"failed":0,"metrics":{}}}`), &r); err != nil || r.Workload != "serve" {
		t.Errorf("valid line: %+v, %v", r, err)
	}
}
