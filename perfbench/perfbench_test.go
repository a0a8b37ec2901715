package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// declaredMetric is a metric entry of BENCHMARK.json.
type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs one workload at the test scale and returns the parsed JSON
// line and the "# name value unit" report lines by name.
func runTiny(t *testing.T, workload, seed, trace string) (result, map[string]string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run([]string{"-workload", workload, "-seed", seed, "-seconds", "0.4", "-trace", trace,
		"-tiny", "-spans", t.TempDir()}, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if code != 0 {
		t.Fatalf("%s seed %s trace %s: exit %d\nstdout:\n%s\nstderr:\n%s", workload, seed, trace, code, out.String(), errOut.String())
	}
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, lines[len(lines)-1])
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", workload, r.Correct, r.Attempted, r.Failed, out.String())
	}
	report := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		if f := strings.Fields(l); len(f) == 4 && f[0] == "#" {
			report[f[1]] = f[2]
		}
	}
	return r, report
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeclaredMetrics pins the metric tables the program emits to the
// ones BENCHMARK.json declares.
func TestDeclaredMetrics(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, c := range []struct {
		name     string
		declared []declaredMetric
		emitted  []metric
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.declared) != len(c.emitted) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program emits %d", c.name, len(c.declared), len(c.emitted))
		}
		for i, m := range c.declared {
			if m.Name != c.emitted[i].name || m.Unit != c.emitted[i].unit {
				t.Errorf("%s[%d]: declared %s (%s), emitted %s (%s)", c.name, i, m.Name, m.Unit, c.emitted[i].name, c.emitted[i].unit)
			}
		}
	}
	want := []string{"devices-mix", "cascade-rollup", "feed-serve"}
	if len(b.Workloads) != len(want) {
		t.Fatalf("workloads: %v", b.Workloads)
	}
	for i, w := range b.Workloads {
		if w.Name != want[i] {
			t.Errorf("workload %d: %s, want %s", i, w.Name, want[i])
		}
	}
}

// TestWorkloads runs every workload at the test scale: the correctness
// checks pass, every declared metric is emitted with its unit, the
// access count repeats exactly for one seed (across two runs and the
// traced run) on the batch workloads, and another seed gives other
// inputs.
func TestWorkloads(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, w := range []string{"devices-mix", "cascade-rollup", "feed-serve"} {
		t.Run(w, func(t *testing.T) {
			first, rep1 := runTiny(t, w, "1", "0")
			checkEmitted(t, first, b.EndToEnd)
			traced, repT := runTiny(t, w, "1", "1")
			checkEmitted(t, traced, b.PerLayer)
			_, rep2 := runTiny(t, w, "2", "0")
			if rep1["inputs_digest"] == "" || rep1["inputs_digest"] != repT["inputs_digest"] {
				t.Errorf("seed 1 inputs differ between runs: %q vs %q", rep1["inputs_digest"], repT["inputs_digest"])
			}
			if rep1["inputs_digest"] == rep2["inputs_digest"] {
				t.Errorf("seeds 1 and 2 gave the same inputs (digest %s)", rep1["inputs_digest"])
			}
			if w == "feed-serve" {
				return // batching follows the clock, so its access count is not exact
			}
			again, _ := runTiny(t, w, "1", "0")
			a1, a2 := first.Metrics["accesses_per_mod"].Value, again.Metrics["accesses_per_mod"].Value
			if a1 != a2 {
				t.Errorf("accesses_per_mod differs between runs of seed 1: %v vs %v", a1, a2)
			}
			if got, want := repT["accesses_per_mod"], rep1["accesses_per_mod"]; got != want {
				t.Errorf("traced accesses_per_mod %s, untraced %s", got, want)
			}
		})
	}
}

func checkEmitted(t *testing.T, r result, declared []declaredMetric) {
	t.Helper()
	if len(r.Metrics) != len(declared) {
		t.Errorf("emitted %d metrics, declared %d", len(r.Metrics), len(declared))
	}
	for _, m := range declared {
		got, ok := r.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s not emitted", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s: unit %s, declared %s", m.Name, got.Unit, m.Unit)
		}
	}
}
