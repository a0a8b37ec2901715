package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"
)

// metric is a declared metric: its name and unit.
type metric struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in
// order, with their units: the JSON line carries exactly the endToEnd set
// on an untraced run and exactly the perLayer set on a traced one.
// The p95s are measured and printed but not declared: they spread too far
// between runs to be gated (NOTES.md).
var endToEnd = []metric{
	{name: "setup_s", unit: "s"},
	{name: "heap_mb", unit: "MB"},
	{name: "round_ms_p50", unit: "ms"},
	{name: "mods_per_s", unit: "1/s"},
	{name: "accesses_per_mod", unit: "count"},
	{name: "alloc_kb_per_mod", unit: "KB"},
	{name: "commit_ms_p50", unit: "ms"},
	{name: "read_ms_p50", unit: "ms"},
}

var perLayer = []metric{
	{name: "db.load_s", unit: "s"},
	{name: "db.write_us_p50", unit: "us"},
	{name: "db.write_ms", unit: "ms"},
	{name: "db.log_entries", unit: "count"},
	{name: "storage.lookup_n", unit: "count"},
	{name: "storage.lookup_ms", unit: "ms"},
	{name: "storage.scan_n", unit: "count"},
	{name: "storage.scan_rows", unit: "count"},
	{name: "storage.write_n", unit: "count"},
	{name: "storage.write_rows", unit: "count"},
	{name: "storage.write_ms", unit: "ms"},
	{name: "storage.epoch_n", unit: "count"},
	{name: "storage.epoch_ms", unit: "ms"},
	{name: "storage.tuple_reads", unit: "count"},
	{name: "storage.index_lookups", unit: "count"},
	{name: "storage.tuple_writes", unit: "count"},
	{name: "algebra.compute_ms", unit: "ms"},
	{name: "algebra.compute_accesses", unit: "count"},
	{name: "ivm.create_views_s", unit: "s"},
	{name: "ivm.maintain_ms_p50", unit: "ms"},
	{name: "ivm.apply_ms", unit: "ms"},
	{name: "ivm.orchestration_ms", unit: "ms"},
	{name: "ivm.diff_tuples", unit: "count"},
	{name: "ivm.view_diff_tuples", unit: "count"},
	{name: "ivm.rows_touched", unit: "count"},
	{name: "ivm.compression_p", unit: "ratio"},
	{name: "ivm.compaction_ratio", unit: "ratio"},
	{name: "trace.overhead_ratio", unit: "ratio"},
}

// report is a run's outcome: the checks, the counts the JSON line
// carries, and every metric measured (a superset of the declared ones).
type report struct {
	attempted, failed int64
	problems          []string
	values            map[string]float64
	units             map[string]string
	order             []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, units: map[string]string{}}
}

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.values[name]; !ok {
		r.order = append(r.order, name)
	}
	r.values[name] = v
	r.units[name] = unit
}

// fail records a failed write, round, read or check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted consistency check, recording err if any.
func (r *report) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.fail("%s: %s", what, truncate(err.Error(), 300))
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// print writes every measured metric as "name value unit" lines, then the
// JSON line with the declared set, and reports whether the run was correct.
func (r *report) print(w io.Writer, declared []metric) (bool, error) {
	for _, p := range r.problems {
		fmt.Fprintf(w, "# FAILED %s\n", p)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	r.set("failed_frac", frac, "ratio")
	for _, n := range r.order {
		fmt.Fprintf(w, "# %-34s %s %s\n", n, strconv.FormatFloat(r.values[n], 'g', -1, 64), r.units[n])
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]jm, len(declared))
	for _, m := range declared {
		v, ok := r.values[m.name]
		switch {
		case !ok:
			return false, fmt.Errorf("metric %s was not measured", m.name)
		case r.units[m.name] != m.unit:
			return false, fmt.Errorf("metric %s measured in %s, declared in %s", m.name, r.units[m.name], m.unit)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return false, fmt.Errorf("metric %s has no value (%v)", m.name, v)
		}
		out[m.name] = jm{Value: v, Unit: m.unit}
	}
	correct := r.failed == 0 && r.attempted > 0
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{correct, r.attempted, r.failed, out})
	if err != nil {
		return false, err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return correct, err
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation;
// xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	f := pos - float64(lo)
	return xs[lo]*(1-f) + xs[lo+1]*f
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// segments is how many consecutive stretches a run's latency samples are
// cut into for segQuantile.
const segments = 4

// segQuantile returns the median over consecutive segments of xs (which
// is in time order) of each segment's q-quantile. A burst of machine
// noise confined to one segment then moves the result less than it moves
// a pooled percentile. Segments keep at least ten samples beyond the
// percentile (and twenty for a median); with fewer samples there are
// fewer segments, down to the pooled quantile.
func segQuantile(xs []float64, q float64) float64 {
	minLen := 20
	if tail := 1 - q; tail > 0 && int(10/tail) > minLen {
		minLen = int(10 / tail)
	}
	k := segments
	for k > 1 && len(xs)/k < minLen {
		k--
	}
	per := make([]float64, k)
	for i := range per {
		chunk := append([]float64(nil), xs[i*len(xs)/k:(i+1)*len(xs)/k]...)
		per[i] = quantile(chunk, q)
	}
	return median(per)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// allocBytes is the cumulative heap allocation of the process, read
// without stopping the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeapMB returns the live heap in MB. It collects twice: objects in
// sync.Pool survive one collection in the victim cache.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
