package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"idivm"
	"idivm/internal/ivm"
)

// batchWorkload is a workload driven in rounds on one goroutine: a
// round's Insert/Update/Delete calls through the facade, then Maintain.
// After each round a few point reads go through QuerySnapshot, outside
// the round's timing.
type batchWorkload struct {
	views []string // CREATE VIEW statements, in registration order
	// load creates and fills the base tables through the facade and
	// returns the seeded generator of the workload's rounds.
	load          func(d *idivm.DB, rng *rand.Rand) (roundGen, error)
	reads         []string // point-query texts, issued in rotation
	readsPerRound int
	checkEvery    int // rounds between CheckConsistent sweeps
	// accessRounds is the fixed prefix of measured rounds accesses_per_mod
	// is taken over, so the count repeats exactly for one seed however
	// many rounds fit in the run.
	accessRounds int
	warmRounds   int
}

// roundGen issues one round's modifications and checks the tables stay
// stationary.
type roundGen interface {
	round(w *writer)
	// stationary compares table sizes at run start and end.
	stationary(start, end map[string]int) error
}

// writer issues facade writes, recording each call's start (for commit
// latency) and, when traced, its duration and span.
type writer struct {
	d      *idivm.DB
	tr     *tracer
	starts []time.Time
	durs   []float64 // µs, traced only
	ok     int
	errs   []string

	name     string // the call in flight
	id, prev int64  // its span and the enclosing one
}

func (w *writer) reset() {
	w.starts, w.ok, w.errs = w.starts[:0], 0, w.errs[:0]
}

func (w *writer) begin(name string) {
	w.name = name
	w.starts = append(w.starts, time.Now())
	if w.tr != nil {
		w.id = w.tr.reserve(name)
		w.prev = w.tr.parent.Swap(w.id)
	}
}

func (w *writer) end(found bool, err error) {
	if w.tr != nil {
		start, end := w.starts[len(w.starts)-1], time.Now()
		w.tr.parent.Store(w.prev)
		w.tr.finish(w.id, start, end)
		w.durs = append(w.durs, float64(end.Sub(start))/1e3)
	}
	switch {
	case err != nil:
		w.errs = append(w.errs, fmt.Sprintf("%s: %v", w.name, err))
	case !found:
		w.errs = append(w.errs, w.name+": row not found")
	default:
		w.ok++
	}
}

func (w *writer) insert(table string, vals ...any) {
	w.begin("db.insert")
	err := w.d.Insert(table, vals...)
	w.end(true, err)
}

func (w *writer) update(table string, key []any, set map[string]any) {
	w.begin("db.update")
	found, err := w.d.Update(table, key, set)
	w.end(found, err)
}

func (w *writer) delete(table string, key ...any) {
	w.begin("db.delete")
	found, err := w.d.Delete(table, key...)
	w.end(found, err)
}

// setupResult is one database made ready: opened, loaded through the
// write API, views created, first Maintain done.
type setupResult struct {
	d                *idivm.DB
	gen              roundGen
	total, load, cvs time.Duration
}

func (bw *batchWorkload) setup(seed int64, opts ...idivm.Option) (*setupResult, error) {
	t0 := time.Now()
	d := idivm.Open(opts...)
	gen, err := bw.load(d, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	t1 := time.Now()
	for _, v := range bw.views {
		if err := d.CreateView(v); err != nil {
			return nil, fmt.Errorf("create view: %w", err)
		}
	}
	if _, err := d.Maintain(); err != nil {
		return nil, fmt.Errorf("first maintain: %w", err)
	}
	t2 := time.Now()
	return &setupResult{d: d, gen: gen, total: t2.Sub(t0), load: t1.Sub(t0), cvs: t2.Sub(t1)}, nil
}

// batchPhase is the raw outcome of one measured stretch of rounds.
type batchPhase struct {
	rounds, mods            int64
	roundMs, commitMs, read []float64
	roundTime               time.Duration
	allocs                  uint64
	prefixAcc               [3]int64 // reads, lookups, writes over the access prefix
	prefixMods              int64
	heapMB                  float64

	// Traced only.
	writeUs                       []float64
	maintainMs                    []float64
	maintainTime                  time.Duration
	writeCalls                    time.Duration // summed facade write-call durations
	logEntries, diffTuples        int64
	viewDiff, rowsTouched, viewRT int64
	firstDiff                     int64
	computeTime, applyTime        time.Duration
	computeAcc                    int64
	scriptTime                    time.Duration
	perView                       map[string]*viewCost
	storage                       [numPhases][numOps]opAgg
}

type viewCost struct {
	time     time.Duration
	accesses int64
}

// run measures rounds until dur has elapsed and at least atLeast rounds
// (and the access prefix) are done. tr is nil on an untraced run.
func (bw *batchWorkload) run(s *setupResult, rep *report, dur time.Duration, atLeast int, tr *tracer) *batchPhase {
	d, gen := s.d, s.gen
	ph := &batchPhase{perView: map[string]*viewCost{}}
	w := &writer{d: d, tr: tr}
	var sys *ivm.System
	if tr != nil {
		_, sys = d.Unwrap()
		prev := sys.Hooks
		sys.Hooks = ivm.RoundHooks{
			RoundBegin: prev.RoundBegin,
			UnpinBegin: func() {
				if prev.UnpinBegin != nil {
					prev.UnpinBegin()
				}
				tr.setPhase(phSweep)
			},
			RoundEnd: func() {
				if prev.RoundEnd != nil {
					prev.RoundEnd()
				}
				tr.setPhase(phIdle)
			},
		}
	}
	names := viewNames(d)
	startSizes := tableSizes(d)
	need := atLeast
	if need < bw.accessRounds {
		need = bw.accessRounds
	}
	var begin time.Time
	for r := 0; ; r++ {
		m := r - bw.warmRounds // measured-round index, negative while warming up
		if m == 0 {
			begin = time.Now()
			if tr != nil {
				tr.on.Store(true)
			}
		}
		if m >= 0 && int(ph.rounds) >= need && time.Since(begin) >= dur {
			break
		}
		a0 := allocBytes()
		d.ResetAccessCounter()
		w.reset()
		var roundID int64
		if tr != nil {
			tr.round.Store(int64(r + 1))
			roundID = tr.reserve("round")
			tr.parent.Store(roundID)
			tr.setPhase(phWrite)
		}
		t0 := time.Now()
		gen.round(w)
		tw := time.Now()
		r1, l1, w1 := d.AccessCounter()
		var logLen int
		var reports []*ivm.Report
		var err error
		if tr != nil {
			dd, _ := d.Unwrap()
			logLen = len(dd.Log())
			tr.setPhase(phMaintain)
			mID := tr.reserve("ivm.maintain")
			tr.parent.Store(mID)
			d.ResetAccessCounter() // what Maintain does first
			reports, err = sys.MaintainAll()
			tr.finish(mID, tw, time.Now())
			tr.annotate(roundID, reportAttrs(reports))
		} else {
			_, err = d.Maintain()
		}
		t1 := time.Now()
		r2, l2, w2 := d.AccessCounter()
		a1 := allocBytes()
		if tr != nil {
			tr.finish(roundID, t0, t1)
			tr.parent.Store(0)
			tr.setPhase(phIdle)
		}

		rep.attempted += int64(len(w.starts)) + 1
		for _, e := range w.errs {
			rep.fail("round %d: %s", r, e)
		}
		if err != nil {
			rep.fail("round %d: maintain: %v", r, err)
		}
		if m >= 0 {
			ph.rounds++
			ph.mods += int64(w.ok)
			ph.roundTime += t1.Sub(t0)
			ph.roundMs = append(ph.roundMs, ms(t1.Sub(t0)))
			for _, st := range w.starts {
				ph.commitMs = append(ph.commitMs, ms(t1.Sub(st)))
			}
			ph.allocs += a1 - a0
			if m < bw.accessRounds {
				ph.prefixAcc[0] += r1 + r2
				ph.prefixAcc[1] += l1 + l2
				ph.prefixAcc[2] += w1 + w2
				ph.prefixMods += int64(w.ok)
			}
			if tr != nil {
				ph.writeUs = append(ph.writeUs, w.durs...)
				for _, us := range w.durs {
					ph.writeCalls += time.Duration(us * 1e3)
				}
				ph.maintainTime += t1.Sub(tw)
				ph.maintainMs = append(ph.maintainMs, ms(t1.Sub(tw)))
				ph.logEntries += int64(logLen)
				ph.addReports(reports)
			}
		}
		w.durs = w.durs[:0]

		tr.setPhase(phRead)
		for i := 0; i < bw.readsPerRound; i++ {
			q := bw.reads[(r*bw.readsPerRound+i)%len(bw.reads)]
			t := time.Now()
			_, err := d.QuerySnapshot(q)
			lat := time.Since(t)
			rep.attempted++
			if err != nil {
				rep.fail("read %q: %v", q, err)
			}
			if m >= 0 {
				ph.read = append(ph.read, ms(lat))
			}
			tr.add("facade.query_snapshot", t, t.Add(lat))
		}
		if (r+1)%bw.checkEvery == 0 {
			tr.setPhase(phCheck)
			checkViews(d, names, rep, fmt.Sprintf("round %d", r))
		}
		tr.setPhase(phIdle)
	}
	if tr != nil {
		tr.on.Store(false)
		ph.storage = tr.totals()
	}
	tr.setPhase(phCheck)
	checkViews(d, names, rep, "run end")
	rep.attempted++
	if err := gen.stationary(startSizes, tableSizes(d)); err != nil {
		rep.fail("table sizes: %v", err)
	}
	ph.heapMB = liveHeapMB()
	runtime.KeepAlive(d)
	return ph
}

// reportAttrs renders each view's script time, accesses and per-phase
// times from the round's reports, for the round span.
func reportAttrs(reports []*ivm.Report) string {
	var b strings.Builder
	for _, r := range reports {
		fmt.Fprintf(&b, "view.%s.ms=%.3f;view.%s.accesses=%d;", r.View, ms(r.Duration), r.View, r.Phases.Total().Total())
		for p, t := range r.Phases.Time {
			fmt.Fprintf(&b, "view.%s.%s.ms=%.3f;", r.View, ivm.Phase(p), ms(t))
		}
	}
	return b.String()
}

func (ph *batchPhase) addReports(reports []*ivm.Report) {
	for i, r := range reports {
		pc := r.Phases
		ph.diffTuples += int64(r.DiffTuples)
		if i == 0 {
			ph.firstDiff += int64(r.DiffTuples)
		}
		ph.viewDiff += int64(pc.ViewDiffTuples)
		ph.viewRT += int64(pc.ViewRowsTouched)
		ph.rowsTouched += int64(pc.RowsTouched)
		ph.computeTime += pc.Time[ivm.PhaseCacheCompute] + pc.Time[ivm.PhaseViewCompute]
		ph.applyTime += pc.Time[ivm.PhaseCacheUpdate] + pc.Time[ivm.PhaseViewUpdate]
		ph.computeAcc += pc.Cost[ivm.PhaseCacheCompute].Total() + pc.Cost[ivm.PhaseViewCompute].Total()
		ph.scriptTime += r.Duration
		vc := ph.perView[r.View]
		if vc == nil {
			vc = &viewCost{}
			ph.perView[r.View] = vc
		}
		vc.time += r.Duration
		vc.accesses += pc.Total().Total()
	}
}

// accessesPerMod is the exact Section-6 access count per modification
// over the access prefix.
func (ph *batchPhase) accessesPerMod() float64 {
	return float64(ph.prefixAcc[0]+ph.prefixAcc[1]+ph.prefixAcc[2]) / float64(ph.prefixMods)
}

// endToEnd sets the untraced metrics of a batch phase.
func (ph *batchPhase) endToEnd(rep *report, setupS float64) {
	rep.set("setup_s", setupS, "s")
	rep.set("heap_mb", ph.heapMB, "MB")
	rep.set("rounds", float64(ph.rounds), "count")
	rep.set("round_ms_p50", segQuantile(ph.roundMs, 0.5), "ms")
	rep.set("round_ms_p95", segQuantile(ph.roundMs, 0.95), "ms")
	rep.set("mods_per_s", float64(ph.mods)/ph.roundTime.Seconds(), "1/s")
	rep.set("accesses_per_mod", ph.accessesPerMod(), "count")
	rep.set("alloc_kb_per_mod", float64(ph.allocs)/1024/float64(ph.mods), "KB")
	rep.set("commit_ms_p50", segQuantile(ph.commitMs, 0.5), "ms")
	rep.set("commit_ms_p95", segQuantile(ph.commitMs, 0.95), "ms")
	rep.set("read_ms_p50", segQuantile(ph.read, 0.5), "ms")
	rep.set("read_ms_p95", segQuantile(ph.read, 0.95), "ms")
}

// perLayer sets the traced metrics of a batch phase: per-round averages
// over the measured rounds unless the name says otherwise.
func (ph *batchPhase) perLayer(rep *report) {
	n := float64(ph.rounds)
	perRound := func(x float64) float64 { return x / n }
	st := ph.storage
	sum := func(op opKind, phases ...phase) opAgg {
		var a opAgg
		for _, p := range phases {
			a.n += st[p][op].n
			a.rows += st[p][op].rows
			a.dur += st[p][op].dur
		}
		return a
	}
	round := []phase{phWrite, phMaintain, phSweep}
	rep.set("db.write_us_p50", median(ph.writeUs), "us")
	rep.set("db.write_ms", perRound(ms(ph.writeCalls)), "ms")
	rep.set("db.log_entries", perRound(float64(ph.logEntries)), "count")
	setStorage(rep, perRound, sum(opLookup, round...), sum(opScan, round...), sum(opWrite, round...), sum(opEpoch, round...))
	mods := float64(ph.prefixMods)
	rep.set("storage.tuple_reads", float64(ph.prefixAcc[0])/mods, "count")
	rep.set("storage.index_lookups", float64(ph.prefixAcc[1])/mods, "count")
	rep.set("storage.tuple_writes", float64(ph.prefixAcc[2])/mods, "count")
	rep.set("algebra.compute_ms", perRound(ms(ph.computeTime)), "ms")
	rep.set("algebra.compute_accesses", perRound(float64(ph.computeAcc)), "count")
	rep.set("ivm.maintain_ms_p50", median(ph.maintainMs), "ms")
	rep.set("ivm.apply_ms", perRound(ms(ph.applyTime)), "ms")
	rep.set("ivm.orchestration_ms", perRound(ms(ph.maintainTime-ph.scriptTime)), "ms")
	rep.set("ivm.diff_tuples", perRound(float64(ph.diffTuples)), "count")
	rep.set("ivm.view_diff_tuples", perRound(float64(ph.viewDiff)), "count")
	rep.set("ivm.rows_touched", perRound(float64(ph.rowsTouched)), "count")
	rep.set("ivm.compression_p", float64(ph.viewRT)/float64(ph.viewDiff), "ratio")
	rep.set("ivm.compaction_ratio", float64(ph.firstDiff)/float64(ph.logEntries), "ratio")
	for _, name := range sortedKeys(ph.perView) {
		vc := ph.perView[name]
		rep.set("ivm.view."+name+".script_ms", perRound(ms(vc.time)), "ms")
		rep.set("ivm.view."+name+".accesses", perRound(float64(vc.accesses)), "count")
	}

	// Self time per round: storage calls are charged to the layer that
	// made them by phase (write phase → db; maintain-phase reads → the
	// compiled kernels, writes → the apply steps; epochs → orchestration).
	// The unattributed rest is the generator's own work between writes.
	rd := sum(opLookup, phMaintain).dur + sum(opScan, phMaintain).dur
	storageAll := sum(opLookup, round...).dur + sum(opScan, round...).dur + sum(opWrite, round...).dur + sum(opEpoch, round...).dur
	storageWrite := sum(opLookup, phWrite).dur + sum(opScan, phWrite).dur + sum(opWrite, phWrite).dur + sum(opEpoch, phWrite).dur
	storageMaint := storageAll - storageWrite
	rep.set("self.storage_ms", perRound(ms(storageAll)), "ms")
	rep.set("self.db_ms", perRound(ms(ph.writeCalls-storageWrite)), "ms")
	rep.set("self.algebra_ms", perRound(ms(ph.computeTime-rd)), "ms")
	rep.set("self.ivm_ms", perRound(ms(ph.maintainTime-ph.computeTime-(storageMaint-rd))), "ms")
	rep.set("self.unattributed_ms", perRound(ms(ph.roundTime-ph.writeCalls-ph.maintainTime)), "ms")
}

// setStorage sets the per-round storage call metrics.
func setStorage(rep *report, perRound func(float64) float64, lookup, scan, write, epoch opAgg) {
	rep.set("storage.lookup_n", perRound(float64(lookup.n)), "count")
	rep.set("storage.lookup_ms", perRound(ms(lookup.dur)), "ms")
	rep.set("storage.scan_n", perRound(float64(scan.n)), "count")
	rep.set("storage.scan_rows", perRound(float64(scan.rows)), "count")
	rep.set("storage.scan_ms", perRound(ms(scan.dur)), "ms")
	rep.set("storage.write_n", perRound(float64(write.n)), "count")
	rep.set("storage.write_rows", perRound(float64(write.rows)), "count")
	rep.set("storage.write_ms", perRound(ms(write.dur)), "ms")
	rep.set("storage.epoch_n", perRound(float64(epoch.n)), "count")
	rep.set("storage.epoch_ms", perRound(ms(epoch.dur)), "ms")
}

// checkViews runs CheckConsistent on every view, counting each check.
func checkViews(d *idivm.DB, views []string, rep *report, when string) {
	for _, v := range views {
		rep.check(fmt.Sprintf("%s: CheckConsistent(%s)", when, v), d.CheckConsistent(v))
	}
}

func viewNames(d *idivm.DB) []string {
	_, sys := d.Unwrap()
	return sys.ViewNames()
}

// tableSizes reports the live row count of every table in the catalog.
func tableSizes(d *idivm.DB) map[string]int {
	dd, _ := d.Unwrap()
	out := map[string]int{}
	for _, name := range dd.TableNames() {
		if t, err := dd.Table(name); err == nil {
			out[name] = t.Len()
		}
	}
	return out
}
