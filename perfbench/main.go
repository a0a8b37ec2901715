// Command perfbench is the repository's benchmark. It drives one of three
// seeded workloads through the public idivm facade on the engine's
// defaults, checks every view, prints every metric as a "# name value
// unit" line and ends with one JSON line holding the end-to-end metrics
// (or, with -trace 1, the per-layer metrics of a separate traced run).
// NOTES.md describes the workloads, the metrics and what each per-layer
// metric is expected to move.
//
//	perfbench -workload devices-mix -seed 1 -seconds 10 -trace 0
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"idivm"
	"idivm/internal/rel"
)

// An untraced run sets its database up at least minSetups times and, for
// workloads that set up quickly, until setupBudget is spent (at most
// maxSetups times); setup_s is the median.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

// minRounds keeps at least ten round samples beyond the p95.
const minRounds = 200

type config struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	tiny     bool
	spans    string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var seconds float64
	var trace int
	fs.StringVar(&c.workload, "workload", "", "devices-mix, cascade-rollup or feed-serve")
	fs.Int64Var(&c.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	fs.BoolVar(&c.tiny, "tiny", false, "run at the test scale")
	fs.StringVar(&c.spans, "spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	c.dur = time.Duration(seconds * float64(time.Second))
	c.trace = trace == 1

	var rep *report
	var err error
	switch c.workload {
	case "devices-mix":
		sc := devicesScale{parts: 10000, devices: 10000, fanout: 10, phonePct: 20, priceUpdates: 200, flipPairs: 10, churn: 10}
		if c.tiny {
			sc = devicesScale{parts: 400, devices: 400, fanout: 4, phonePct: 20, priceUpdates: 20, flipPairs: 2, churn: 2}
		}
		rep, err = runBatch(devicesMix(sc), c, stdout)
	case "cascade-rollup":
		sc := cascadeScale{users: 8000, cities: 800, updates: 100}
		if c.tiny {
			sc = cascadeScale{users: 400, cities: 40, updates: 20}
		}
		rep, err = runBatch(cascadeRollup(sc), c, stdout)
	case "feed-serve":
		sc := defaultFeedScale
		if c.tiny {
			sc = tinyFeedScale
		}
		rep, err = runFeed(sc, c, stdout)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q\n", c.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", c.workload, err)
		return 1
	}
	declared := endToEnd
	if c.trace {
		declared = perLayer
	}
	correct, err := rep.print(stdout, declared)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// repeatSetup sets a database up repeatedly (see minSetups), discarding
// all but the last, and returns the last with the median set-up time.
func repeatSetup[T any](setup func() (T, time.Duration, error), discard func(T) error) (T, float64, error) {
	var last T
	var times []float64
	var spent time.Duration
	for len(times) < minSetups || (spent < setupBudget && len(times) < maxSetups) {
		if len(times) > 0 {
			if err := discard(last); err != nil {
				return last, 0, err
			}
		}
		var zero T
		last = zero
		runtime.GC() // drop the previous set-up's database
		v, d, err := setup()
		if err != nil {
			return last, 0, err
		}
		last = v
		times = append(times, d.Seconds())
		spent += d
	}
	return last, median(times), nil
}

// runBatch runs a batch workload. Untraced: repeated set-ups, then the
// measured rounds on the last database. Traced: an untraced reference
// stretch and a traced stretch, each on a fresh database from the same
// seed and each half the run, so the tracing overhead is measured in the
// same process.
func runBatch(bw *batchWorkload, c config, out io.Writer) (*report, error) {
	rep := newReport()
	if !c.trace {
		s, setupS, err := repeatSetup(func() (*setupResult, time.Duration, error) {
			s, err := bw.setup(c.seed)
			if err != nil {
				return nil, 0, err
			}
			return s, s.total, nil
		}, func(*setupResult) error { return nil })
		if err != nil {
			return nil, err
		}
		rep.set("inputs_digest", inputsDigest(s.d), "hash")
		ph := bw.run(s, rep, c.dur, minRounds, nil)
		ph.endToEnd(rep, setupS)
		return rep, nil
	}

	base, err := bw.setup(c.seed)
	if err != nil {
		return nil, err
	}
	rep.set("inputs_digest", inputsDigest(base.d), "hash")
	rep.set("db.load_s", base.load.Seconds(), "s")
	rep.set("ivm.create_views_s", base.cvs.Seconds(), "s")
	ref := bw.run(base, rep, c.dur/2, 0, nil)
	base = nil
	runtime.GC()

	tr := newTracer()
	s, err := bw.setup(c.seed, idivm.WithEngine(&timedEngine{inner: idivm.MemEngine(), tr: tr}))
	if err != nil {
		return nil, err
	}
	ph := bw.run(s, rep, c.dur/2, 0, tr)
	ph.perLayer(rep)
	rep.set("untraced.round_ms_p50", median(ref.roundMs), "ms")
	rep.set("traced.round_ms_p50", median(ph.roundMs), "ms")
	rep.set("trace.overhead_ratio", median(ph.roundMs)/median(ref.roundMs), "ratio")
	rep.attempted++
	if a, b := ph.accessesPerMod(), ref.accessesPerMod(); a != b {
		rep.fail("traced accesses_per_mod %v differs from untraced %v", a, b)
	}
	rep.set("accesses_per_mod", ph.accessesPerMod(), "count")
	return rep, writeSpans(tr, c, out)
}

func writeSpans(tr *tracer, c config, out io.Writer) error {
	path, err := tr.writeSpans(c.spans, fmt.Sprintf("%s-seed%d", c.workload, c.seed))
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "# spans written to %s\n", path)
	return nil
}

// inputsDigest hashes every table's rows as set up, so runs can show that
// one seed gives the same inputs and another seed different ones.
func inputsDigest(d *idivm.DB) float64 {
	dd, _ := d.Unwrap()
	h := fnv.New32a()
	for _, name := range dd.TableNames() {
		t, err := dd.Table(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s:", name)
		for _, row := range t.Rows(rel.StatePost) {
			fmt.Fprintf(h, "%v;", row)
		}
	}
	return float64(h.Sum32())
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
