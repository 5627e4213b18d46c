// Command compare judges a change against its parent from two sets of
// benchmark runs, each a JSON-lines file written by perfbench/collect.sh.
// For every (workload, metric) it prints each side's median and
// quartiles, the change's pair wins, and a verdict under BENCHMARK.json's
// bounds:
//
//	improved       the change wins at least 9 of 10 pairs and the medians
//	               differ by more than the parent's quartile spread
//	worse          the change's median is worse by more than the bound
//	unresolved     a side's quartile spread is wider than the bound
//	within bound   otherwise
//
// Per-layer metrics (traced runs) have no bound and print as "info". The
// exit status is 1 when any verdict is worse, a run is incorrect, or the
// change fails more operations than its parent.
//
//	go -C perfbench run ./compare -bench ../BENCHMARK.json ../base.jsonl ../change.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json the comparer applies.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// run is one line of a collect.sh file.
type run struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

// Verdicts.
const (
	improved    = "improved"
	worse       = "worse"
	unresolved  = "unresolved"
	withinBound = "within bound"
	info        = "info"
)

// row is one (workload, metric) comparison.
type row struct {
	Workload, Metric string
	A, B             [3]float64 // quartiles; [1] is the median
	Wins, Pairs      int
	Verdict          string
}

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-bench BENCHMARK.json] PARENT.jsonl CHANGE.jsonl")
		os.Exit(2)
	}
	sp, err := readSpec(*benchPath)
	if err != nil {
		fatal(err)
	}
	a, err := readRuns(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	b, err := readRuns(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	rows, problems := compare(sp, a, b)
	fmt.Printf("%-8s %-34s %12s %12s %12s %12s %12s %12s %6s  %s\n",
		"workload", "metric", "parent.q1", "parent.med", "parent.q3", "change.q1", "change.med", "change.q3", "wins", "verdict")
	bad := len(problems) > 0
	for _, r := range rows {
		fmt.Printf("%-8s %-34s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %3d/%-2d  %s\n",
			r.Workload, r.Metric, r.A[0], r.A[1], r.A[2], r.B[0], r.B[1], r.B[2], r.Wins, r.Pairs, r.Verdict)
		bad = bad || r.Verdict == worse
	}
	for _, p := range problems {
		fmt.Println("problem:", p)
	}
	if bad {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(2)
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

func readRuns(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseRuns(f, path)
}

func parseRuns(r io.Reader, name string) ([]run, error) {
	var runs []run
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var x run
		if err := json.Unmarshal(sc.Bytes(), &x); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", name, n, err)
		}
		runs = append(runs, x)
	}
	return runs, sc.Err()
}

// compare builds every row plus a list of problems: incorrect runs and
// workloads where the change fails more operations than its parent.
func compare(sp *spec, a, b []run) ([]row, []string) {
	var rows []row
	var problems []string
	for _, w := range workloads(a, b) {
		for _, trace := range []int{0, 1} {
			ra, rb := pick(a, w, trace), pick(b, w, trace)
			if len(ra) == 0 || len(rb) == 0 {
				continue
			}
			for side, runs := range [][]run{ra, rb} {
				for _, x := range runs {
					if !x.Result.Correct {
						problems = append(problems, fmt.Sprintf("%s run %s seed %d trace %d is incorrect",
							[]string{"parent", "change"}[side], w, x.Seed, trace))
					}
				}
			}
			if fa, fb := failed(ra), failed(rb); fb > fa {
				problems = append(problems, fmt.Sprintf("%s trace %d: change failed %d operations, parent %d", w, trace, fb, fa))
			}
			metrics := sp.EndToEnd
			if trace == 1 {
				metrics = sp.PerLayer
			}
			for _, m := range metrics {
				va, vb := values(ra, m.Name), values(rb, m.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				r := judge(m, va, vb)
				r.Workload = w
				if trace == 1 {
					r.Verdict = info
				}
				rows = append(rows, r)
			}
		}
	}
	return rows, problems
}

func workloads(sets ...[]run) []string {
	seen := map[string]bool{}
	var out []string
	for _, runs := range sets {
		for _, x := range runs {
			if !seen[x.Workload] {
				seen[x.Workload] = true
				out = append(out, x.Workload)
			}
		}
	}
	return out
}

// pick returns the runs of one workload and trace mode, in seed order,
// so the i-th runs of both sides form a pair.
func pick(runs []run, workload string, trace int) []run {
	var out []run
	for _, x := range runs {
		if x.Workload == workload && x.Trace == trace {
			out = append(out, x)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seed < out[j].Seed })
	return out
}

func failed(runs []run) int64 {
	var n int64
	for _, x := range runs {
		n += x.Result.Failed
	}
	return n
}

func values(runs []run, metric string) []float64 {
	var out []float64
	for _, x := range runs {
		if v, ok := x.Result.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// judge compares one metric's parent values a with the change's b.
func judge(m metricSpec, a, b []float64) row {
	r := row{Metric: m.Name, A: quartiles(a), B: quartiles(b)}
	better := func(x, y float64) bool { // x reads better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	r.Pairs = min(len(a), len(b))
	for i := 0; i < r.Pairs; i++ {
		if better(b[i], a[i]) {
			r.Wins++
		}
	}
	medA, medB := r.A[1], r.B[1]
	spreadA, spreadB := (r.A[2]-r.A[0])/math.Abs(medA), (r.B[2]-r.B[0])/math.Abs(medB)
	worsening := (medB - medA) / math.Abs(medA) // share by which the change is worse
	if m.Better == "higher" {
		worsening = -worsening
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case 10*r.Wins >= 9*r.Pairs && better(medB, medA) && math.Abs(medB-medA) > r.A[2]-r.A[0]:
		r.Verdict = improved
	case worsening > m.Bound:
		r.Verdict = worse
	case (spreadA > m.Bound || spreadB > m.Bound) && !allBetter:
		r.Verdict = unresolved
	default:
		r.Verdict = withinBound
	}
	return r
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(values, n=4) (exclusive method) and
// statistics.median compute them.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	if ld%2 == 1 {
		q[1] = s[ld/2]
	} else {
		q[1] = (s[ld/2-1] + s[ld/2]) / 2
	}
	return q
}
