package serve_test

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"idivm/internal/db"
	"idivm/internal/ivm"
	"idivm/internal/rel"
	"idivm/internal/serve"
	"idivm/internal/storage"
	"idivm/internal/workload"
)

// engines are the storage backends every concurrency test runs against:
// the single-partition default and the sharded engine, whose non-atomic
// cross-shard epoch close is exactly the tear the seqlock exists for.
var engines = []struct {
	name string
	mk   func() storage.Engine
}{
	{"mem", storage.NewMem},
	{"sharded4", func() storage.Engine { return storage.NewSharded(4) }},
}

const testView = "v"

// flushOpts never cuts a batch on its own: commits happen only on Flush
// (or Close), which is how the deterministic tests pin batch composition.
var flushOpts = serve.Options{MaxBatch: 1 << 20, MaxDelay: time.Hour}

func testParams() workload.Params {
	return workload.Params{Parts: 200, Devices: 200, Selectivity: 20, Fanout: 3, Joins: 2, Seed: 11}
}

// served is one dataset wired for serving: workload tables, a registered
// SPJ view, and a Server.
type served struct {
	ds  *workload.Dataset
	sys *ivm.System
	srv *serve.Server
}

func newServed(t testing.TB, mk func() storage.Engine, opts serve.Options) *served {
	t.Helper()
	ds := workload.BuildWith(testParams(), mk())
	sys := ivm.NewSystem(ds.DB)
	if _, err := sys.RegisterView(testView, ds.SPJPlan(), ivm.ModeID); err != nil {
		t.Fatalf("RegisterView: %v", err)
	}
	ds.DB.Counter().Reset()
	srv := serve.New(ds.DB, sys, opts)
	t.Cleanup(func() { srv.Close() })
	return &served{ds: ds, sys: sys, srv: srv}
}

func fingerprint(r *rel.Relation) string { return r.Sorted().String() }

// mod is one scripted base-table modification, applied identically by the
// direct path (db.Database) and the served path (group-commit dispatcher).
type mod struct {
	kind  int // 0 insert, 1 update, 2 delete
	table string
	row   rel.Tuple
	key   []rel.Value
	attrs []string
	vals  []rel.Value
}

// genRounds scripts a deterministic multi-round write workload: price
// updates on stable parts, category flips on devices (which move rows in
// and out of the view), and part churn (each round deletes the previous
// round's inserts).
func genRounds(p workload.Params, rounds, perRound int) [][]mod {
	rng := rand.New(rand.NewSource(99))
	next := int64(p.Parts)
	var lastIns []int64
	out := make([][]mod, 0, rounds)
	for r := 0; r < rounds; r++ {
		var ms []mod
		for i := 0; i < perRound; i++ {
			pid := int64(rng.Intn(p.Parts))
			ms = append(ms, mod{kind: 1, table: "parts",
				key:   []rel.Value{rel.Int(pid)},
				attrs: []string{"price"},
				vals:  []rel.Value{rel.Int(int64(1 + rng.Intn(100)))}})
		}
		for i := 0; i < perRound/2; i++ {
			did := int64(rng.Intn(p.Devices))
			cat := "phone"
			if rng.Intn(2) == 0 {
				cat = "tablet"
			}
			ms = append(ms, mod{kind: 1, table: "devices",
				key:   []rel.Value{rel.Int(did)},
				attrs: []string{"category"},
				vals:  []rel.Value{rel.String(cat)}})
		}
		for _, pid := range lastIns {
			ms = append(ms, mod{kind: 2, table: "parts", key: []rel.Value{rel.Int(pid)}})
		}
		var ins []int64
		for i := 0; i < perRound/4+1; i++ {
			pid := next
			next++
			ins = append(ins, pid)
			ms = append(ms, mod{kind: 0, table: "parts",
				row: rel.Tuple{rel.Int(pid), rel.Int(int64(1 + rng.Intn(100)))}})
		}
		lastIns = ins
		out = append(out, ms)
	}
	return out
}

// applyDirect drives one round through the catalog and a maintenance
// round, the single-threaded reference path.
func applyDirect(t testing.TB, d *db.Database, sys *ivm.System, ms []mod) {
	t.Helper()
	for _, m := range ms {
		var err error
		switch m.kind {
		case 0:
			err = d.Insert(m.table, m.row)
		case 1:
			_, err = d.Update(m.table, m.key, m.attrs, m.vals)
		default:
			_, err = d.Delete(m.table, m.key)
		}
		if err != nil {
			t.Fatalf("direct %v: %v", m, err)
		}
	}
	if _, err := sys.MaintainAll(); err != nil {
		t.Fatalf("MaintainAll: %v", err)
	}
}

// applyServed drives one round through the dispatcher: enqueue every op,
// flush, and check each op's outcome.
func applyServed(t testing.TB, srv *serve.Server, ms []mod) {
	t.Helper()
	pend := make([]*serve.Pending, len(ms))
	for i, m := range ms {
		switch m.kind {
		case 0:
			pend[i] = srv.EnqueueInsert(m.table, m.row)
		case 1:
			pend[i] = srv.EnqueueUpdate(m.table, m.key, m.attrs, m.vals)
		default:
			pend[i] = srv.EnqueueDelete(m.table, m.key)
		}
	}
	if err := srv.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for i, p := range pend {
		if err := p.Wait(); err != nil {
			t.Fatalf("op %d (%v): %v", i, ms[i], err)
		}
	}
}

// TestSnapshotDuringHeldRound proves the acceptance criterion that
// snapshot reads return without waiting for an in-flight round: a hook
// holds a maintenance round open after its epochs are pinned, and the
// test reads the view and queries a base table while the round is
// provably still in flight. The reads must observe exactly the pre-round
// state.
func TestSnapshotDuringHeldRound(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			ds := workload.BuildWith(testParams(), e.mk())
			sys := ivm.NewSystem(ds.DB)
			if _, err := sys.RegisterView(testView, ds.SPJPlan(), ivm.ModeID); err != nil {
				t.Fatalf("RegisterView: %v", err)
			}
			started := make(chan struct{})
			release := make(chan struct{})
			var hold sync.Once
			// Installed before serve.New so the server composes around it.
			sys.Hooks = ivm.RoundHooks{RoundBegin: func() {
				hold.Do(func() {
					close(started)
					<-release
				})
			}}
			var releaseOnce sync.Once
			unblock := func() { releaseOnce.Do(func() { close(release) }) }

			srv := serve.New(ds.DB, sys, serve.Options{MaxBatch: 8, MaxDelay: time.Millisecond})
			defer srv.Close()
			// Deferred after Close registration so it runs first: Close
			// must never wait on a still-held round.
			defer unblock()

			before, err := srv.ViewSnapshot(testView)
			if err != nil {
				t.Fatalf("ViewSnapshot: %v", err)
			}
			newPid := int64(1_000_000)
			pend := srv.EnqueueInsert("parts", rel.Tuple{rel.Int(newPid), rel.Int(42)})
			<-started // the round is pinned and provably still open

			got, err := srv.ViewSnapshot(testView)
			if err != nil {
				t.Fatalf("ViewSnapshot during round: %v", err)
			}
			if fingerprint(got) != fingerprint(before) {
				t.Fatalf("mid-round snapshot differs from last completed round")
			}
			q, err := srv.QuerySnapshot("SELECT pid, price FROM parts")
			if err != nil {
				t.Fatalf("QuerySnapshot during round: %v", err)
			}
			if containsPid(q, newPid) {
				t.Fatalf("mid-round base snapshot leaked the in-flight insert")
			}

			unblock()
			if err := pend.Wait(); err != nil {
				t.Fatalf("Wait: %v", err)
			}
			q, err = srv.QuerySnapshot("SELECT pid, price FROM parts")
			if err != nil {
				t.Fatalf("QuerySnapshot after round: %v", err)
			}
			if !containsPid(q, newPid) {
				t.Fatalf("post-round snapshot missing the committed insert")
			}
		})
	}
}

func containsPid(r *rel.Relation, pid int64) bool {
	i := r.Schema.Index("pid")
	if i < 0 {
		return false
	}
	for _, tp := range r.Tuples {
		if tp[i].Kind == rel.KindInt && tp[i].AsInt() == pid {
			return true
		}
	}
	return false
}

// counterRun is the outcome of one scripted workload execution.
type counterRun struct {
	counter rel.CostCounter
	viewFP  string
}

func runDirect(t *testing.T, mk func() storage.Engine, roundsMods [][]mod) counterRun {
	t.Helper()
	ds := workload.BuildWith(testParams(), mk())
	sys := ivm.NewSystem(ds.DB)
	if _, err := sys.RegisterView(testView, ds.SPJPlan(), ivm.ModeID); err != nil {
		t.Fatalf("RegisterView: %v", err)
	}
	ds.DB.Counter().Reset()
	for _, ms := range roundsMods {
		applyDirect(t, ds.DB, sys, ms)
	}
	vt, err := ds.DB.Table(testView)
	if err != nil {
		t.Fatal(err)
	}
	return counterRun{counter: *ds.DB.Counter(), viewFP: fingerprint(vt.Relation(rel.StatePost))}
}

func runServed(t *testing.T, mk func() storage.Engine, roundsMods [][]mod, readers int) counterRun {
	t.Helper()
	s := newServed(t, mk, flushOpts)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		//ivmlint:allow gostmt — test reader goroutines hammering snapshots
		go hammer(&wg, s.srv, stop, nil, nil)
	}
	for _, ms := range roundsMods {
		applyServed(t, s.srv, ms)
	}
	close(stop)
	wg.Wait()
	vt, err := s.ds.DB.Table(testView)
	if err != nil {
		t.Fatal(err)
	}
	run := counterRun{counter: *s.ds.DB.Counter(), viewFP: fingerprint(vt.Relation(rel.StatePost))}
	st := s.srv.Stats()
	if st.Batches != int64(len(roundsMods)) {
		t.Fatalf("Batches = %d, want %d (one per Flush)", st.Batches, len(roundsMods))
	}
	return run
}

// hammer loops snapshot reads until stop closes, optionally recording the
// deduplicated fingerprints it observed. A named function rather than a
// closure so it owns its state outright.
func hammer(wg *sync.WaitGroup, srv *serve.Server, stop chan struct{}, viewOut, queryOut *[]string) {
	defer wg.Done()
	lastV, lastQ := "", ""
	for {
		select {
		case <-stop:
			return
		default:
		}
		v, err := srv.ViewSnapshot(testView)
		if err != nil {
			record(viewOut, "err: "+err.Error())
			return
		}
		if fp := fingerprint(v); fp != lastV {
			lastV = fp
			record(viewOut, fp)
		}
		q, err := srv.QuerySnapshot("SELECT pid, price FROM parts")
		if err != nil {
			record(queryOut, "err: "+err.Error())
			return
		}
		if fp := fingerprint(q); fp != lastQ {
			lastQ = fp
			record(queryOut, fp)
		}
	}
}

func record(out *[]string, s string) {
	if out != nil {
		*out = append(*out, s)
	}
}

// TestReadersDoNotPerturbCounters pins the acceptance criterion that
// maintenance access counters are byte-identical with and without
// concurrent snapshot readers — and identical to the direct
// single-threaded path, batch for batch.
func TestReadersDoNotPerturbCounters(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			roundsMods := genRounds(testParams(), 6, 8)
			direct := runDirect(t, e.mk, roundsMods)
			quiet := runServed(t, e.mk, roundsMods, 0)
			loud := runServed(t, e.mk, roundsMods, 4)

			if quiet.counter != direct.counter {
				t.Errorf("served counters %+v differ from direct %+v", quiet.counter, direct.counter)
			}
			if loud.counter != quiet.counter {
				t.Errorf("counters with readers %+v differ from without %+v", loud.counter, quiet.counter)
			}
			if direct.viewFP != quiet.viewFP || quiet.viewFP != loud.viewFP {
				t.Errorf("final view states diverge across paths")
			}
		})
	}
}

// TestSnapshotTearFreedom is the race-enabled differential tear-check:
// readers hammer ViewSnapshot and QuerySnapshot through randomized
// maintenance rounds, and every state they observe must be some round's
// exact post-state as recorded by a single-threaded replay of the same
// scripted batches. Run under -race with -cpu 1,4 in CI.
func TestSnapshotTearFreedom(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			rounds := 25
			if testing.Short() {
				rounds = 8
			}
			roundsMods := genRounds(testParams(), rounds, 8)

			// Replay: record every legal state, including the initial one.
			legalView := map[string]bool{}
			legalQuery := map[string]bool{}
			replay := newServed(t, e.mk, flushOpts)
			snapInto(t, replay.srv, legalView, legalQuery)
			for _, ms := range roundsMods {
				applyServed(t, replay.srv, ms)
				snapInto(t, replay.srv, legalView, legalQuery)
			}

			// Concurrent run: same batches, hammering readers.
			s := newServed(t, e.mk, flushOpts)
			const readers = 3
			stop := make(chan struct{})
			var wg sync.WaitGroup
			obsView := make([][]string, readers)
			obsQuery := make([][]string, readers)
			for i := 0; i < readers; i++ {
				wg.Add(1)
				//ivmlint:allow gostmt — test reader goroutines hammering snapshots
				go hammer(&wg, s.srv, stop, &obsView[i], &obsQuery[i])
			}
			for _, ms := range roundsMods {
				applyServed(t, s.srv, ms)
			}
			close(stop)
			wg.Wait()

			for i := 0; i < readers; i++ {
				for _, fp := range obsView[i] {
					if !legalView[fp] {
						t.Fatalf("reader %d observed a torn view state:\n%s", i, clip(fp))
					}
				}
				for _, fp := range obsQuery[i] {
					if !legalQuery[fp] {
						t.Fatalf("reader %d observed a torn query state:\n%s", i, clip(fp))
					}
				}
			}
		})
	}
}

func snapInto(t testing.TB, srv *serve.Server, legalView, legalQuery map[string]bool) {
	t.Helper()
	v, err := srv.ViewSnapshot(testView)
	if err != nil {
		t.Fatalf("ViewSnapshot: %v", err)
	}
	legalView[fingerprint(v)] = true
	q, err := srv.QuerySnapshot("SELECT pid, price FROM parts")
	if err != nil {
		t.Fatalf("QuerySnapshot: %v", err)
	}
	legalQuery[fingerprint(q)] = true
}

func clip(s string) string {
	if len(s) > 400 {
		return s[:400] + "…"
	}
	return s
}

// TestDispatcherBatching covers the three batch-cut triggers and the
// dispatcher's error and lifecycle semantics.
func TestDispatcherBatching(t *testing.T) {
	t.Run("maxbatch", func(t *testing.T) {
		s := newServed(t, storage.NewMem, serve.Options{MaxBatch: 3, MaxDelay: time.Hour})
		p1 := s.srv.EnqueueUpdate("parts", []rel.Value{rel.Int(1)}, []string{"price"}, []rel.Value{rel.Int(7)})
		p2 := s.srv.EnqueueUpdate("parts", []rel.Value{rel.Int(2)}, []string{"price"}, []rel.Value{rel.Int(8)})
		p3 := s.srv.EnqueueUpdate("parts", []rel.Value{rel.Int(3)}, []string{"price"}, []rel.Value{rel.Int(9)})
		for i, p := range []*serve.Pending{p1, p2, p3} {
			if err := p.Wait(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		if st := s.srv.Stats(); st.Batches != 1 || st.Ops != 3 {
			t.Fatalf("stats = %+v, want one 3-op batch", st)
		}
	})

	t.Run("maxdelay", func(t *testing.T) {
		s := newServed(t, storage.NewMem, serve.Options{MaxBatch: 1 << 20, MaxDelay: 2 * time.Millisecond})
		if err := s.srv.Insert("parts", rel.Tuple{rel.Int(9_001), rel.Int(1)}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if st := s.srv.Stats(); st.Batches != 1 {
			t.Fatalf("stats = %+v, want the delay timer to have cut one batch", st)
		}
	})

	t.Run("immediate", func(t *testing.T) {
		s := newServed(t, storage.NewMem, serve.Options{MaxBatch: 1 << 20})
		if err := s.srv.Insert("parts", rel.Tuple{rel.Int(9_002), rel.Int(1)}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if err := s.srv.Insert("parts", rel.Tuple{rel.Int(9_003), rel.Int(1)}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if st := s.srv.Stats(); st.Batches != 2 {
			t.Fatalf("stats = %+v, want zero MaxDelay to commit each op alone", st)
		}
	})

	t.Run("flush-idle", func(t *testing.T) {
		s := newServed(t, storage.NewMem, flushOpts)
		if err := s.srv.Flush(); err != nil {
			t.Fatalf("idle Flush: %v", err)
		}
		if st := s.srv.Stats(); st.Batches != 0 || st.Rounds != 0 {
			t.Fatalf("stats = %+v, want an idle flush to skip the round", st)
		}
	})

	t.Run("op-errors", func(t *testing.T) {
		s := newServed(t, storage.NewMem, flushOpts)
		dup := s.srv.EnqueueInsert("parts", rel.Tuple{rel.Int(0), rel.Int(1)}) // pid 0 exists
		ok := s.srv.EnqueueUpdate("parts", []rel.Value{rel.Int(1)}, []string{"price"}, []rel.Value{rel.Int(5)})
		missing := s.srv.EnqueueDelete("parts", []rel.Value{rel.Int(99_999_999)})
		if err := s.srv.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		if err := dup.Wait(); err == nil {
			t.Fatal("duplicate insert resolved without error")
		}
		if err := ok.Wait(); err != nil {
			t.Fatalf("healthy op poisoned by its neighbor: %v", err)
		}
		if err := missing.Wait(); err != nil {
			t.Fatalf("delete of a missing key is not an error: %v", err)
		}
	})

	t.Run("close", func(t *testing.T) {
		s := newServed(t, storage.NewMem, flushOpts)
		pend := s.srv.EnqueueInsert("parts", rel.Tuple{rel.Int(9_004), rel.Int(1)})
		if err := s.srv.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := pend.Wait(); err != nil {
			t.Fatalf("queued op dropped by Close: %v", err)
		}
		if err := s.srv.Insert("parts", rel.Tuple{rel.Int(9_005), rel.Int(1)}); !errors.Is(err, serve.ErrClosed) {
			t.Fatalf("enqueue after Close = %v, want ErrClosed", err)
		}
		if err := s.srv.Flush(); !errors.Is(err, serve.ErrClosed) {
			t.Fatalf("Flush after Close = %v, want ErrClosed", err)
		}
		if err := s.srv.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		// The committed insert must be visible in the snapshot.
		q, err := s.srv.QuerySnapshot("SELECT pid, price FROM parts")
		if err != nil {
			t.Fatalf("QuerySnapshot after Close: %v", err)
		}
		if !containsPid(q, 9_004) {
			t.Fatal("Close did not commit the queued insert")
		}
	})
}

// TestSnapshotUnknownView pins the error path.
func TestSnapshotUnknownView(t *testing.T) {
	s := newServed(t, storage.NewMem, flushOpts)
	if _, err := s.srv.ViewSnapshot("nope"); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("ViewSnapshot(nope) = %v, want unknown table", err)
	}
}

// within runs f on a watchdog goroutine and fails the test if it does not
// return in time: a stranded caller must fail the test, not hang it.
func within(t *testing.T, what string, f func() error) error {
	t.Helper()
	res := make(chan error, 1)
	//ivmlint:allow gostmt — watchdog so a stranded caller fails the test
	go func() { res <- f() }()
	select {
	case err := <-res:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s still blocked after the dispatcher panicked", what)
		return nil
	}
}

// TestDispatcherPanicResolvesPendings injects a panic on the dispatcher
// goroutine through a round hook. The batch being committed, the Flush
// waiting on it, every later op and Flush, and Close must all return with
// ErrFailed instead of blocking; snapshot reads keep answering from the
// last completed round.
func TestDispatcherPanicResolvesPendings(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			ds := workload.BuildWith(testParams(), e.mk())
			sys := ivm.NewSystem(ds.DB)
			if _, err := sys.RegisterView(testView, ds.SPJPlan(), ivm.ModeID); err != nil {
				t.Fatalf("RegisterView: %v", err)
			}
			var boom sync.Once
			armed := make(chan struct{})
			// Installed before serve.New so the server composes around it.
			sys.Hooks = ivm.RoundHooks{RoundBegin: func() {
				select {
				case <-armed:
					boom.Do(func() { panic("injected round fault") })
				default:
				}
			}}
			srv := serve.New(ds.DB, sys, flushOpts)
			price := func(p int64) (*serve.Pending, []rel.Value) {
				key := []rel.Value{rel.Int(p)}
				return srv.EnqueueUpdate("parts", key, []string{"price"}, []rel.Value{rel.Int(424242)}), key
			}

			// A healthy round first.
			ok, _ := price(0)
			if err := srv.Flush(); err != nil {
				t.Fatalf("healthy Flush: %v", err)
			}
			if err := ok.Wait(); err != nil {
				t.Fatalf("healthy Wait: %v", err)
			}
			before, err := srv.ViewSnapshot(testView)
			if err != nil {
				t.Fatalf("ViewSnapshot: %v", err)
			}

			close(armed)
			p1, _ := price(1)
			p2 := srv.EnqueueInsert("parts", rel.Tuple{rel.Int(1_000_000), rel.Int(1)})
			if err := within(t, "Flush", srv.Flush); !errors.Is(err, serve.ErrFailed) {
				t.Fatalf("Flush over the panicking round = %v, want ErrFailed", err)
			}
			for i, p := range []*serve.Pending{p1, p2} {
				if err := within(t, "Wait", p.Wait); !errors.Is(err, serve.ErrFailed) {
					t.Fatalf("pending %d in the panicking batch = %v, want ErrFailed", i, err)
				}
			}

			// Later ops and flushes fail at once; nothing is applied.
			p3, key := price(2)
			if err := within(t, "Wait", p3.Wait); !errors.Is(err, serve.ErrFailed) {
				t.Fatalf("op after the panic = %v, want ErrFailed", err)
			}
			if err := within(t, "Flush", srv.Flush); !errors.Is(err, serve.ErrFailed) {
				t.Fatalf("Flush after the panic = %v, want ErrFailed", err)
			}
			parts, err := ds.DB.Table("parts")
			if err != nil {
				t.Fatal(err)
			}
			if row, found := parts.WithCounter(nil).Get(rel.StatePost, key); !found || row[1].Equal(rel.Int(424242)) {
				t.Fatalf("op after the panic reached the table: %v", row)
			}

			// The panic hit before the advance window, so the last
			// completed round is still readable.
			after, err := srv.ViewSnapshot(testView)
			if err != nil {
				t.Fatalf("ViewSnapshot after the panic: %v", err)
			}
			if fingerprint(after) != fingerprint(before) {
				t.Fatal("snapshot after the panic differs from the last completed round")
			}

			pend := srv.EnqueueDelete("parts", key)
			if err := within(t, "Close", srv.Close); !errors.Is(err, serve.ErrFailed) {
				t.Fatalf("Close = %v, want ErrFailed", err)
			}
			if err := within(t, "Wait", pend.Wait); !errors.Is(err, serve.ErrFailed) {
				t.Fatalf("op queued before Close = %v, want ErrFailed", err)
			}
			if err := srv.EnqueueInsert("parts", rel.Tuple{rel.Int(2_000_000), rel.Int(1)}).Wait(); !errors.Is(err, serve.ErrClosed) {
				t.Fatalf("op after Close = %v, want ErrClosed", err)
			}
		})
	}
}
