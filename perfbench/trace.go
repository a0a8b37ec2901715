package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// opKind classifies a storage call.
type opKind int

const (
	opLookup opKind = iota // Get, Lookup, LookupInto
	opScan                 // Scan, ScanPart
	opWrite                // Insert, InsertIfAbsent, Delete*, Update*
	opEpoch                // BeginEpoch, AdvanceEpoch, EndEpoch
	numOps
)

var opNames = [numOps]string{"storage.lookup", "storage.scan", "storage.write", "storage.epoch"}

// phase is where the writer/maintenance timeline stands when a storage
// call starts. Storage time is split by phase into the layer that made the
// call: write-phase calls belong to the db module's write path,
// maintain-phase calls to the Δ-script (reads to the compiled kernels,
// writes to the apply steps), sweep-phase calls to round orchestration.
type phase int32

const (
	phIdle     phase = iota // between rounds: loop bookkeeping
	phWrite                 // facade writes (batch) or the dispatcher's apply (serving)
	phMaintain              // RoundBegin to UnpinBegin
	phSweep                 // UnpinBegin to RoundEnd: log reset and epoch close/advance
	phRead                  // snapshot reads
	phCheck                 // consistency checks
	numPhases
)

// opAgg totals one kind of storage call.
type opAgg struct {
	n, rows int64
	dur     time.Duration
}

// span is one timed interval: a facade call, a round, a storage call.
// Times are offsets from the tracer's start; attrs carries what a round
// span learns from the round's reports, as "key=value;" pairs.
type span struct {
	id, parent, round int64
	name, attrs       string
	start, end        time.Duration
}

// maxSpans bounds the spans kept in memory; later spans still feed the
// per-phase totals, and the overflow is counted.
const maxSpans = 1 << 18

// tracer collects the traced run's spans in memory. Storage calls may
// arrive from several goroutines (the serving dispatcher and a snapshot
// reader), so everything behind mu is shared; the current phase, parent
// span and round are atomics the timeline's owner updates.
type tracer struct {
	t0 time.Time
	// on gates storage spans: set-up traffic is not traced.
	on     atomic.Bool
	phase  atomic.Int32
	parent atomic.Int64
	round  atomic.Int64
	// firstWrite is the tracer time of the first write-phase storage call
	// since it was last cleared: the start of a serving round's apply.
	firstWrite atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int64
	agg     [numPhases][numOps]opAgg
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) at(t time.Time) time.Duration { return t.Sub(tr.t0) }

// setPhase moves the timeline to p (no-op on a nil tracer).
func (tr *tracer) setPhase(p phase) {
	if tr != nil {
		tr.phase.Store(int32(p))
	}
}

// pushLocked appends a span and returns its id, or 0 once maxSpans are
// kept. The caller holds mu.
func (tr *tracer) pushLocked(s span) int64 {
	if len(tr.spans) >= maxSpans {
		tr.dropped++
		return 0
	}
	s.id = int64(len(tr.spans) + 1)
	tr.spans = append(tr.spans, s)
	return s.id
}

// add records a finished span with no parent: a read or a commit seen
// from outside the writer's timeline (no-op on a nil tracer).
func (tr *tracer) add(name string, start, end time.Time) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.pushLocked(span{round: tr.round.Load(), name: name, start: tr.at(start), end: tr.at(end)})
	tr.mu.Unlock()
}

// reserve allocates the id of a span that encloses spans recorded before
// it ends (a round, a Maintain call), so its children can name it as
// parent; finish fills it in.
func (tr *tracer) reserve(name string) int64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.pushLocked(span{parent: tr.parent.Load(), round: tr.round.Load(), name: name})
}

// annotate sets a reserved span's attributes.
func (tr *tracer) annotate(id int64, attrs string) {
	if tr == nil || id == 0 {
		return
	}
	tr.mu.Lock()
	tr.spans[id-1].attrs = attrs
	tr.mu.Unlock()
}

func (tr *tracer) finish(id int64, start, end time.Time) {
	if tr == nil || id == 0 {
		return
	}
	tr.mu.Lock()
	tr.spans[id-1].start, tr.spans[id-1].end = tr.at(start), tr.at(end)
	tr.mu.Unlock()
}

// storage records one storage call that began at start and touched rows
// rows. A snapshot probe (a pre-state Lookup) is a reader's call, whatever
// the timeline is doing concurrently.
func (tr *tracer) storage(op opKind, start time.Time, rows int, snapshotProbe bool) {
	if !tr.on.Load() {
		return
	}
	end := time.Now()
	ph := phase(tr.phase.Load())
	parent := tr.parent.Load()
	if snapshotProbe {
		ph, parent = phRead, 0
	}
	if ph == phWrite {
		tr.firstWrite.CompareAndSwap(0, int64(tr.at(start)))
	}
	tr.mu.Lock()
	a := &tr.agg[ph][op]
	a.n++
	a.rows += int64(rows)
	a.dur += end.Sub(start)
	tr.pushLocked(span{parent: parent, round: tr.round.Load(), name: opNames[op], start: tr.at(start), end: tr.at(end)})
	tr.mu.Unlock()
}

// totals returns a copy of the per-phase storage totals.
func (tr *tracer) totals() [numPhases][numOps]opAgg {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.agg
}

// writeSpans writes the kept spans as tab-separated rows (id, parent,
// round, name, start µs, end µs, attributes) to dir/<name>.tsv.
func (tr *tracer) writeSpans(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# spans kept %d, dropped %d\nid\tparent\tround\tname\tstart_us\tend_us\tattrs\n", len(tr.spans), tr.dropped)
	for _, s := range tr.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%.3f\t%.3f\t%s\n", s.id, s.parent, s.round, s.name,
			float64(s.start)/1e3, float64(s.end)/1e3, s.attrs)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
