package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"resourcecentral/internal/obs"
)

// span is one timed region of the traced pass. Spans from the benchmark
// wrap a public call into one layer; spans from the program are the obs
// spans the layers already emit, parented under the innermost span that
// encloses them.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Source string `json:"source"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanRecorder keeps every span in memory until the run ends. A nil
// recorder records nothing, so untraced code paths call it freely.
type spanRecorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// begin opens a benchmark span and returns its id (0 when not tracing).
func (r *spanRecorder) begin(name, layer string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Source: "bench", Start: now, End: -1})
	return id
}

// end closes the span opened by begin.
func (r *spanRecorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// obsLayer maps the program's obs span names to layers.
func obsLayer(name string) string {
	switch {
	case name == "pipeline.featuredata":
		return "featuredata"
	case strings.HasPrefix(name, "pipeline.train."):
		return "ml"
	case name == "pipeline.publish":
		return "store"
	case strings.HasPrefix(name, "sim."):
		return "sim"
	}
	return "pipeline"
}

// collect registers a hook that records every span reg's users end.
func (r *spanRecorder) collect(reg *obs.Registry) {
	if r == nil {
		return
	}
	reg.OnSpanEnd(func(ev obs.SpanEvent) {
		start := ev.Start.Sub(r.t0).Nanoseconds()
		r.mu.Lock()
		r.spans = append(r.spans, span{
			ID: len(r.spans) + 1, Name: ev.Name, Layer: obsLayer(ev.Name), Source: "obs",
			Start: start, End: start + ev.Duration.Nanoseconds(),
		})
		r.mu.Unlock()
	})
}

// finish parents every program span under the innermost span that
// encloses it and may have caused it (benchmark spans already carry
// their parent).
func (r *spanRecorder) finish() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		s := &r.spans[i]
		if s.Source != "obs" {
			continue
		}
		best := -1
		for j := range r.spans {
			p := &r.spans[j]
			if j == i || p.End < 0 || p.Start > s.Start || p.End < s.End {
				continue
			}
			if p.Source == "obs" && !obsParent(p.Name, s.Name) {
				continue // a concurrent sibling, not a caller
			}
			if best < 0 || p.dur() < r.spans[best].dur() {
				best = j
			}
		}
		if best >= 0 {
			s.Parent = r.spans[best].ID
		}
	}
}

// obsParent reports whether program span parent can enclose child: by
// name, "pipeline.run" encloses "pipeline.*" and "pipeline.train"
// encloses "pipeline.train.*".
func obsParent(parent, child string) bool {
	return strings.HasPrefix(child, strings.TrimSuffix(parent, ".run")+".")
}

// byName returns the summed duration of the spans called name.
func (r *spanRecorder) byName(name string) time.Duration {
	var d time.Duration
	for i := range r.spans {
		if r.spans[i].Name == name {
			d += r.spans[i].dur()
		}
	}
	return d
}

// coverage is the share of span root's duration covered by the union of
// its leaf descendants: how much of an end-to-end time the layer spans
// account for.
func (r *spanRecorder) coverage(root int) float64 {
	children := map[int][]int{}
	for i := range r.spans {
		children[r.spans[i].Parent] = append(children[r.spans[i].Parent], r.spans[i].ID)
	}
	var leaves [][2]int64
	var walk func(id int)
	walk = func(id int) {
		kids := children[id]
		if len(kids) == 0 && id != root {
			s := &r.spans[id-1]
			leaves = append(leaves, [2]int64{s.Start, s.End})
		}
		for _, k := range kids {
			walk(k)
		}
	}
	walk(root)
	rs := &r.spans[root-1]
	sort.Slice(leaves, func(i, j int) bool { return leaves[i][0] < leaves[j][0] })
	var covered, cur int64 = 0, rs.Start
	for _, l := range leaves {
		lo, hi := max(l[0], cur), min(l[1], rs.End)
		if hi > lo {
			covered += hi - lo
			cur = hi
		}
	}
	return float64(covered) / float64(rs.End-rs.Start)
}

// write stores the spans as JSON lines.
func (r *spanRecorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// call runs fn inside a benchmark span and counts it as one operation.
func (b *bench) call(name, layer string, parent int, fn func() error) (time.Duration, error) {
	id := b.spans.begin(name, layer, parent)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	b.spans.end(id)
	return d, b.op(name, err)
}

// cpuLayers are the layers whose CPU share the traced run reports; the
// rest of the repo's packages fall under "other".
var cpuLayers = []string{"synth", "trace", "featuredata", "fftperiod", "pipeline", "ml", "model",
	"store", "core", "serve", "cluster", "sim", "obs", "harness", "runtime", "other"}

// profiler captures one CPU profile plus the runtime's GC CPU counters
// over the same interval.
type profiler struct {
	buf     bytes.Buffer
	cpuFrom []metrics.Sample
}

var cpuClassMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/cpu/classes/idle:cpu-seconds"}

func readCPUClasses() []metrics.Sample {
	s := make([]metrics.Sample, len(cpuClassMetrics))
	for i, n := range cpuClassMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func startProfiler() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	p.cpuFrom = readCPUClasses()
	return p, nil
}

// stop ends the profile, writes it to path, and reports cpu_share.<layer>
// for every layer plus cpu_share.gc.
func (p *profiler) stop(b *bench, path string) error {
	pprof.StopCPUProfile()
	to := readCPUClasses()
	delta := func(i int) float64 { return to[i].Value.Float64() - p.cpuFrom[i].Value.Float64() }
	if busy := delta(1) - delta(2); busy > 0 {
		b.metric("cpu_share.gc", delta(0)/busy, "ratio")
	}
	if err := os.WriteFile(path, p.buf.Bytes(), 0o644); err != nil {
		return err
	}
	shares, err := cpuShares(p.buf.Bytes())
	if err != nil {
		return err
	}
	for _, l := range cpuLayers {
		b.metric("cpu_share."+l, shares[l], "ratio")
	}
	return nil
}

// layerOf names the layer a profiled function belongs to, or "" for
// standard-library and runtime code.
func layerOf(fn string) string {
	const repo = "resourcecentral/internal/"
	if p, ok := strings.CutPrefix(fn, repo); ok {
		pkg, _, _ := strings.Cut(p, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		for _, l := range cpuLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "main.") {
		return "harness"
	}
	return ""
}

// cpuShares attributes each CPU sample of a gzipped pprof profile to the
// innermost frame that belongs to a repo layer (so math.Log under
// trace.hashNorm counts to trace); samples with no such frame count to
// runtime.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		strs     []string
		samples  []sample
		funcName = map[uint64]int64{}
		locFuncs = map[uint64][]uint64{}
	)
	err = pbFields(raw, func(f int, v uint64, data []byte) error {
		switch f {
		case 2: // Sample
			var s sample
			var values []uint64
			err := pbFields(data, func(f int, v uint64, data []byte) error {
				switch f {
				case 1:
					s.locs = pbUints(s.locs, v, data)
				case 2:
					values = pbUints(values, v, data)
				}
				return nil
			})
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(data, func(f int, v uint64, data []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(data, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("parse CPU profile: %w", err)
	}
	shares := map[string]float64{}
	var total int64
	for _, s := range samples {
		layer := "runtime"
	frames:
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if i := funcName[fid]; i >= 0 && int(i) < len(strs) {
					if l := layerOf(strs[i]); l != "" {
						layer = l
						break frames
					}
				}
			}
		}
		shares[layer] += float64(s.count)
		total += s.count
	}
	if total == 0 {
		return nil, errors.New("CPU profile has no samples")
	}
	for k := range shares {
		shares[k] /= float64(total)
	}
	return shares, nil
}

// pbFields walks the fields of one protobuf message, passing varint and
// fixed values as v and length-delimited payloads as data.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated varint field's value: one element when
// unpacked (data nil), every element of a packed run otherwise.
func pbUints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// outPath returns the path of one traced-run artifact under b.outDir.
func (b *bench) outPath(kind, ext string) (string, error) {
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(b.outDir, fmt.Sprintf("%s-seed%d-%s.%s", b.workload, b.seed, kind, ext)), nil
}

// abort ends the profile without reporting it.
func (p *profiler) abort() { pprof.StopCPUProfile() }
