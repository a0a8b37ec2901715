package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"idivm"
	"idivm/internal/ivm"
)

// feedScale sizes feed-serve and fixes its offered load.
type feedScale struct {
	users, followsPerUser, tweets int
	zipfS                         float64
	pairRate                      float64 // tweet insert+delete pairs offered per second
	readRate                      float64 // QuerySnapshot calls offered per second
	queries                       int     // distinct point-query texts
	maxBatch                      int
	maxDelay                      time.Duration
	warmup                        time.Duration
}

var defaultFeedScale = feedScale{users: 1000, followsPerUser: 4, tweets: 50, zipfS: 1.1,
	pairRate: 100, readRate: 50, queries: 32, maxBatch: 6, maxDelay: 50 * time.Millisecond, warmup: time.Second}

var tinyFeedScale = feedScale{users: 100, followsPerUser: 3, tweets: 40, zipfS: 1.1,
	pairRate: 100, readRate: 50, queries: 8, maxBatch: 6, maxDelay: 50 * time.Millisecond, warmup: 100 * time.Millisecond}

// feedDB is a feed-serve database made ready.
type feedDB struct {
	d                *idivm.DB
	live             []int64 // tweet ids, oldest first
	nextTwid         int64
	authors          *authorStream
	total, load, cvs time.Duration
}

// zipfBlock returns n user ranks whose counts follow the Zipf(s)
// weights of rand.Zipf (v = 1) exactly, by largest-remainder rounding.
func zipfBlock(users, n int, s float64) []int64 {
	w := make([]float64, users)
	total := 0.0
	for k := range w {
		w[k] = math.Pow(float64(k+1), -s)
		total += w[k]
	}
	counts := make([]int, users)
	order := make([]int, users)
	left := n
	for k := range w {
		exact := float64(n) * w[k] / total
		counts[k] = int(exact)
		left -= counts[k]
		order[k] = k
		w[k] = exact - float64(counts[k])
	}
	sort.SliceStable(order, func(i, j int) bool { return w[order[i]] > w[order[j]] })
	for _, k := range order[:left] {
		counts[k]++
	}
	block := make([]int64, 0, n)
	for k, c := range counts {
		for ; c > 0; c-- {
			block = append(block, int64(k))
		}
	}
	return block
}

// authorStream draws tweet authors in blocks of zipfBlock counts, each
// block shuffled by the seed. Over any stretch of about one block, and so
// in the live window, celebrity tweets make up exactly their Zipf share
// rather than a binomial draw of it, which keeps the feed view's size,
// and with it the round cost, from drifting with the seed.
type authorStream struct {
	rng   *rand.Rand
	block []int64
	next  []int64
}

func (a *authorStream) draw() int64 {
	if len(a.next) == 0 {
		a.next = append(a.next[:0], a.block...)
		a.rng.Shuffle(len(a.next), func(i, j int) { a.next[i], a.next[j] = a.next[j], a.next[i] })
	}
	x := a.next[len(a.next)-1]
	a.next = a.next[:len(a.next)-1]
	return x
}

// setupFeed opens the database with serving, loads follows and tweets
// (Zipf-distributed followees and authors, as internal/workload's skew
// generator draws them) through the write API, creates the feed view and
// flushes.
func setupFeed(sc feedScale, rng *rand.Rand, opts ...idivm.Option) (*feedDB, error) {
	t0 := time.Now()
	opts = append(opts, idivm.WithServing(idivm.ServingOptions{MaxBatch: sc.maxBatch, MaxDelay: sc.maxDelay}))
	d := idivm.Open(opts...)
	f := &feedDB{d: d, authors: &authorStream{rng: rng, block: zipfBlock(sc.users, sc.tweets, sc.zipfS)}}
	if err := d.CreateTable("follows", []string{"follower", "followee"}, "follower", "followee"); err != nil {
		return nil, err
	}
	if err := d.CreateTable("tweets", []string{"twid", "author"}, "twid"); err != nil {
		return nil, err
	}
	// Followees come from one shuffled exact-count block too, so each
	// user's follower count is its Zipf share. A draw that would repeat an
	// edge or follow oneself stays in the pool for a later follower; a
	// follower the pool cannot serve draws uniformly.
	pool := zipfBlock(sc.users, sc.users*sc.followsPerUser, sc.zipfS)
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	for u := 0; u < sc.users; u++ {
		seen := map[int64]bool{int64(u): true}
		for i := 0; len(seen) <= sc.followsPerUser; {
			var v int64
			if i < len(pool) {
				v = pool[i]
			} else {
				v = int64(rng.Intn(sc.users))
			}
			if seen[v] {
				i++
				continue
			}
			if i < len(pool) {
				pool = append(pool[:i], pool[i+1:]...)
			}
			seen[v] = true
			if err := d.Insert("follows", u, v); err != nil {
				return nil, err
			}
		}
	}
	for ; f.nextTwid < int64(sc.tweets); f.nextTwid++ {
		if err := d.Insert("tweets", f.nextTwid, f.authors.draw()); err != nil {
			return nil, err
		}
		f.live = append(f.live, f.nextTwid)
	}
	t1 := time.Now()
	if err := d.CreateView(`CREATE VIEW feed AS
		SELECT follows.follower AS follower, tweets.twid AS twid, tweets.author AS author
		FROM tweets, follows WHERE tweets.author = follows.followee`); err != nil {
		return nil, fmt.Errorf("create view: %w", err)
	}
	if err := d.Serving().Flush(); err != nil {
		return nil, fmt.Errorf("first flush: %w", err)
	}
	t2 := time.Now()
	f.total, f.load, f.cvs = t2.Sub(t0), t1.Sub(t0), t2.Sub(t1)
	return f, nil
}

// roundRec is one serving round as the chained round hooks saw it.
type roundRec struct {
	begin, unpin, end time.Time
	logEntries        int
	applyStart        time.Duration // traced: first apply-phase storage call, tracer time
	acc               [3]int64      // access counter at RoundBegin
	accUnpin, accEnd  [3]int64
}

// chainHooks wraps the round hooks the serving layer installed, calling
// them unchanged and recording each round around them into rounds. The
// hooks run on the dispatcher; read rounds only after Close.
func chainHooks(d *idivm.DB, rounds *[]roundRec, tr *tracer) {
	dd, sys := d.Unwrap()
	prev := sys.Hooks
	counter := func() [3]int64 {
		r, k, w := d.AccessCounter()
		return [3]int64{r, k, w}
	}
	sys.Hooks = ivm.RoundHooks{
		RoundBegin: func() {
			rec := roundRec{begin: time.Now(), logEntries: len(dd.Log()), acc: counter()}
			if tr != nil {
				rec.applyStart = time.Duration(tr.firstWrite.Swap(0))
				tr.round.Add(1)
				tr.parent.Store(tr.reserve("serve.round"))
				tr.setPhase(phMaintain)
			}
			*rounds = append(*rounds, rec)
			if prev.RoundBegin != nil {
				prev.RoundBegin()
			}
		},
		UnpinBegin: func() {
			if prev.UnpinBegin != nil {
				prev.UnpinBegin()
			}
			tr.setPhase(phSweep)
			rec := &(*rounds)[len(*rounds)-1]
			rec.unpin, rec.accUnpin = time.Now(), counter()
		},
		RoundEnd: func() {
			if prev.RoundEnd != nil {
				prev.RoundEnd()
			}
			rec := &(*rounds)[len(*rounds)-1]
			rec.end, rec.accEnd = time.Now(), counter()
			if tr != nil {
				id := tr.parent.Swap(0)
				tr.annotate(id, fmt.Sprintf("log_entries=%d;maintain_accesses=%d;", rec.logEntries,
					rec.accEnd[0]+rec.accEnd[1]+rec.accEnd[2]-rec.acc[0]-rec.acc[1]-rec.acc[2]))
				tr.finish(id, rec.begin, rec.end)
				tr.setPhase(phWrite)
			}
		},
	}
}

// pendingWrite is one enqueued write awaiting its commit.
type pendingWrite struct {
	p     *idivm.PendingWrite
	sched time.Time
}

// feedPhase is the raw outcome of one measured feed-serve stretch.
type feedPhase struct {
	winStart, winEnd time.Time
	commitMs, readMs []float64
	committed        int64     // writes scheduled in the window and committed
	lastCommit       time.Time // when the last of them committed
	allocs           uint64
	rounds           []roundRec
	subRounds        []int64
	subRecv          []time.Time
	viewDiffRows     []int64
	queueMax         int64
	genLate          time.Duration
	stats0, stats1   idivm.ServingStats
	heapMB           float64
	storage          [numPhases][numOps]opAgg
}

// runFeedPhase drives one open-loop stretch: a writer offering
// insert+delete pairs at pairRate, a reader offering point reads at
// readRate, a waiter timestamping commits and a subscriber draining the
// feed's deltas. Only the writer and the reader generate load.
func runFeedPhase(f *feedDB, sc feedScale, seed int64, dur time.Duration, rep *report, tr *tracer) *feedPhase {
	d, srv := f.d, f.d.Serving()
	ph := &feedPhase{}
	chainHooks(d, &ph.rounds, tr)
	sub, err := d.Subscribe("feed")
	if err != nil {
		rep.attempted++
		rep.fail("subscribe: %v", err)
		return ph
	}
	start := time.Now().Add(10 * time.Millisecond)
	ph.winStart, ph.winEnd = start.Add(sc.warmup), start.Add(sc.warmup+dur)
	inWin := func(t time.Time) bool { return !t.Before(ph.winStart) && t.Before(ph.winEnd) }

	var load, subWG sync.WaitGroup
	var mu sync.Mutex // guards rep and the phase's sample slices
	var enqueued, resolved atomic.Int64

	// Sized for every write of the run, so the writer never waits on the
	// waiter and the offered schedule holds.
	pend := make(chan pendingWrite, int(2*sc.pairRate*(sc.warmup+dur).Seconds())+16)
	load.Add(3)
	go func() { // writer
		defer load.Done()
		defer close(pend)
		interval := time.Duration(float64(time.Second) / sc.pairRate)
		var late time.Duration
		for i := 0; ; i++ {
			sched := start.Add(time.Duration(i) * interval)
			if !sched.Before(ph.winEnd) {
				break
			}
			if wait := time.Until(sched); wait > 0 {
				time.Sleep(wait)
			}
			if l := time.Since(sched); inWin(sched) && l > late {
				late = l
			}
			author := f.authors.draw()
			twid, oldest := f.nextTwid, f.live[0]
			f.nextTwid++
			f.live = append(f.live[1:], twid)
			for _, p := range []*idivm.PendingWrite{
				srv.EnqueueInsert("tweets", twid, author),
				srv.EnqueueDelete("tweets", oldest),
			} {
				if depth := enqueued.Add(1) - resolved.Load(); inWin(sched) {
					mu.Lock()
					if depth > ph.queueMax {
						ph.queueMax = depth
					}
					mu.Unlock()
				}
				pend <- pendingWrite{p: p, sched: sched}
			}
		}
		mu.Lock()
		if late > ph.genLate {
			ph.genLate = late
		}
		mu.Unlock()
	}()
	go func() { // waiter: resolves in commit order, so one suffices
		defer load.Done()
		for pw := range pend {
			err := pw.p.Wait()
			done := time.Now()
			resolved.Add(1)
			tr.add("serve.commit", pw.sched, done)
			mu.Lock()
			rep.attempted++
			if err != nil {
				rep.fail("write: %v", err)
			} else if inWin(pw.sched) {
				ph.committed++
				ph.lastCommit = done
				ph.commitMs = append(ph.commitMs, ms(done.Sub(pw.sched)))
			}
			mu.Unlock()
		}
	}()
	go func() { // reader
		defer load.Done()
		rng := rand.New(rand.NewSource(seed ^ 0x4ead))
		texts := make([]string, sc.queries)
		for i := range texts {
			texts[i] = fmt.Sprintf("SELECT twid, author FROM feed WHERE follower = %d", i*sc.users/sc.queries)
		}
		interval := time.Duration(float64(time.Second) / sc.readRate)
		var late time.Duration
		for i := 0; ; i++ {
			sched := start.Add(time.Duration(i) * interval)
			if !sched.Before(ph.winEnd) {
				break
			}
			if wait := time.Until(sched); wait > 0 {
				time.Sleep(wait)
			}
			if l := time.Since(sched); inWin(sched) && l > late {
				late = l
			}
			_, err := d.QuerySnapshot(texts[rng.Intn(len(texts))])
			done := time.Now()
			tr.add("facade.query_snapshot", sched, done)
			mu.Lock()
			rep.attempted++
			if err != nil {
				rep.fail("read: %v", err)
			} else if inWin(sched) {
				ph.readMs = append(ph.readMs, ms(done.Sub(sched)))
			}
			mu.Unlock()
		}
		mu.Lock()
		if late > ph.genLate {
			ph.genLate = late
		}
		mu.Unlock()
	}()
	subWG.Add(1)
	go func() { // subscriber
		defer subWG.Done()
		for delta := range sub.C() {
			recv := time.Now()
			var rows int64
			for _, inst := range delta.Diffs {
				rows += int64(inst.Rows.Len())
			}
			mu.Lock()
			ph.subRounds = append(ph.subRounds, delta.Round)
			ph.subRecv = append(ph.subRecv, recv)
			ph.viewDiffRows = append(ph.viewDiffRows, rows)
			mu.Unlock()
		}
	}()

	time.Sleep(time.Until(ph.winStart))
	ph.stats0 = srv.Stats()
	a0 := allocBytes()
	if tr != nil {
		tr.setPhase(phWrite)
		tr.on.Store(true)
	}
	time.Sleep(time.Until(ph.winEnd))
	ph.allocs = allocBytes() - a0
	ph.stats1 = srv.Stats()
	if tr != nil {
		tr.on.Store(false)
	}
	load.Wait()
	rep.attempted++
	if err := d.Close(); err != nil {
		rep.fail("close: %v", err)
	}
	subWG.Wait()
	final := srv.Stats()
	if tr != nil {
		ph.storage = tr.totals()
	}

	// Every committed round reached the subscriber, in order, none missing.
	rep.attempted++
	for i, r := range ph.subRounds {
		if r != int64(i+1) {
			rep.fail("subscriber saw round %d at position %d", r, i+1)
			break
		}
	}
	if len(ph.subRounds) != len(ph.rounds) || int64(len(ph.rounds)) != final.Rounds {
		rep.fail("subscriber saw %d rounds, the hooks %d, the server %d", len(ph.subRounds), len(ph.rounds), final.Rounds)
	}
	rep.check("after close: CheckConsistent(feed)", d.CheckConsistent("feed"))
	rep.attempted++
	sizes := tableSizes(d)
	if sizes["tweets"] != sc.tweets || sizes["follows"] != sc.users*sc.followsPerUser {
		rep.fail("table sizes: tweets %d (want %d), follows %d (want %d)", sizes["tweets"], sc.tweets,
			sizes["follows"], sc.users*sc.followsPerUser)
	}
	ph.heapMB = liveHeapMB()
	runtime.KeepAlive(d)
	return ph
}

// windowRounds returns the rounds that began inside the measured window.
func (ph *feedPhase) windowRounds() []roundRec {
	var out []roundRec
	for _, r := range ph.rounds {
		if !r.begin.Before(ph.winStart) && r.begin.Before(ph.winEnd) && !r.end.IsZero() {
			out = append(out, r)
		}
	}
	return out
}

// accesses sums the access counter over the window's rounds: each
// round's charges run from the previous RoundEnd (its batch's apply) to
// its own RoundEnd.
func (ph *feedPhase) accesses() (acc [3]int64, logMods int64) {
	for i, r := range ph.rounds {
		if i == 0 || r.begin.Before(ph.winStart) || !r.begin.Before(ph.winEnd) || r.end.IsZero() {
			continue
		}
		for k := range acc {
			acc[k] += r.accEnd[k] - ph.rounds[i-1].accEnd[k]
		}
		logMods += int64(r.logEntries)
	}
	return acc, logMods
}

func (ph *feedPhase) endToEnd(rep *report, setupS float64) {
	rounds := ph.windowRounds()
	roundMs := make([]float64, len(rounds))
	for i, r := range rounds {
		roundMs[i] = ms(r.end.Sub(r.begin))
	}
	acc, logMods := ph.accesses()
	rep.set("setup_s", setupS, "s")
	rep.set("heap_mb", ph.heapMB, "MB")
	rep.set("rounds", float64(len(rounds)), "count")
	rep.set("round_ms_p50", segQuantile(roundMs, 0.5), "ms")
	rep.set("round_ms_p95", segQuantile(roundMs, 0.95), "ms")
	// Throughput over the time the window's writes took to commit, so a
	// backlog at the end of the window lowers it.
	rep.set("mods_per_s", float64(ph.committed)/ph.lastCommit.Sub(ph.winStart).Seconds(), "1/s")
	rep.set("accesses_per_mod", float64(acc[0]+acc[1]+acc[2])/float64(logMods), "count")
	rep.set("alloc_kb_per_mod", float64(ph.allocs)/1024/float64(ph.committed), "KB")
	rep.set("commit_ms_p50", segQuantile(ph.commitMs, 0.5), "ms")
	rep.set("commit_ms_p95", segQuantile(ph.commitMs, 0.95), "ms")
	rep.set("read_ms_p50", segQuantile(ph.readMs, 0.5), "ms")
	rep.set("read_ms_p95", segQuantile(ph.readMs, 0.95), "ms")
}

// perLayer sets the traced metrics of a feed-serve stretch. The serving
// layer keeps each round's Reports internal, so the phase split comes
// from the round hooks and the storage wrapper: the maintain window
// (RoundBegin to UnpinBegin) is the Δ-script, its storage writes are the
// apply steps, the rest of it the compiled kernels, and UnpinBegin to
// RoundEnd is orchestration (log clear and epoch advance).
func (ph *feedPhase) perLayer(rep *report, tr *tracer) {
	rounds := ph.windowRounds()
	n := float64(len(rounds))
	perRound := func(x float64) float64 { return x / n }
	st := ph.storage
	var applyWin, maintWin, sweepWin time.Duration
	var logEntries, computeAcc, viewRows int64
	var perWriteUs, roundMs, sweepMs, batchWrites []float64
	for _, r := range rounds {
		if r.applyStart > 0 {
			aw := tr.t0.Add(r.applyStart)
			if r.begin.After(aw) {
				applyWin += r.begin.Sub(aw)
				if r.logEntries > 0 {
					perWriteUs = append(perWriteUs, float64(r.begin.Sub(aw))/1e3/float64(r.logEntries))
				}
			}
		}
		maintWin += r.unpin.Sub(r.begin)
		sweepWin += r.end.Sub(r.unpin)
		logEntries += int64(r.logEntries)
		computeAcc += (r.accUnpin[0] - r.acc[0]) + (r.accUnpin[1] - r.acc[1])
		roundMs = append(roundMs, ms(r.end.Sub(r.begin)))
		sweepMs = append(sweepMs, ms(r.end.Sub(r.unpin)))
		batchWrites = append(batchWrites, float64(r.logEntries))
	}
	for i, rcv := range ph.subRecv {
		if !rcv.Before(ph.winStart) && rcv.Before(ph.winEnd) {
			viewRows += ph.viewDiffRows[i]
		}
	}
	acc, logMods := ph.accesses()
	round := []phase{phWrite, phMaintain, phSweep}
	sum := func(op opKind, phases ...phase) opAgg {
		var a opAgg
		for _, p := range phases {
			a.n += st[p][op].n
			a.rows += st[p][op].rows
			a.dur += st[p][op].dur
		}
		return a
	}
	applyStore := sum(opWrite, phMaintain)
	rep.set("db.write_us_p50", median(perWriteUs), "us")
	rep.set("db.write_ms", perRound(ms(applyWin)), "ms")
	rep.set("db.log_entries", perRound(float64(logEntries)), "count")
	setStorage(rep, perRound, sum(opLookup, round...), sum(opScan, round...), sum(opWrite, round...), sum(opEpoch, round...))
	rep.set("storage.tuple_reads", float64(acc[0])/float64(logMods), "count")
	rep.set("storage.index_lookups", float64(acc[1])/float64(logMods), "count")
	rep.set("storage.tuple_writes", float64(acc[2])/float64(logMods), "count")
	rep.set("algebra.compute_ms", perRound(ms(maintWin-applyStore.dur)), "ms")
	rep.set("algebra.compute_accesses", perRound(float64(computeAcc)), "count")
	rep.set("ivm.maintain_ms_p50", median(roundMs), "ms")
	rep.set("ivm.apply_ms", perRound(ms(applyStore.dur)), "ms")
	rep.set("ivm.orchestration_ms", perRound(ms(sweepWin)), "ms")
	rep.set("ivm.diff_tuples", perRound(float64(logEntries)), "count")
	rep.set("ivm.view_diff_tuples", perRound(float64(viewRows)), "count")
	rep.set("ivm.rows_touched", perRound(float64(applyStore.rows)), "count")
	rep.set("ivm.compression_p", float64(applyStore.rows)/float64(viewRows), "ratio")
	rep.set("ivm.compaction_ratio", float64(logEntries)/float64(ph.committed), "ratio")

	win := ph.winEnd.Sub(ph.winStart).Seconds()
	rep.set("serve.batch_writes_p50", median(batchWrites), "count")
	rep.set("serve.rounds_per_s", n/win, "1/s")
	rep.set("serve.queue_depth_max", float64(ph.queueMax), "count")
	rep.set("serve.round_ms_p50", median(roundMs), "ms")
	rep.set("serve.epoch_sweep_ms_p50", median(sweepMs), "ms")
	rep.set("serve.read_retries", float64(ph.stats1.SnapshotRetries-ph.stats0.SnapshotRetries), "count")
	hits := ph.stats1.PlanCacheHits - ph.stats0.PlanCacheHits
	misses := ph.stats1.PlanCacheMisses - ph.stats0.PlanCacheMisses
	rep.set("serve.plan_cache_hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	var lag []float64
	for i, rnd := range ph.subRounds {
		if rnd < 1 || int(rnd) > len(ph.rounds) {
			continue
		}
		if end := ph.rounds[rnd-1].end; !end.Before(ph.winStart) && end.Before(ph.winEnd) {
			lag = append(lag, ms(ph.subRecv[i].Sub(end)))
		}
	}
	rep.set("serve.sub_lag_ms_p50", median(lag), "ms")
	rep.set("serve.gen_late_ms_max", ms(ph.genLate), "ms")

	readStore := st[phRead][opLookup].dur + st[phRead][opScan].dur
	storageAll := sum(opLookup, round...).dur + sum(opScan, round...).dur + applyStore.dur + sum(opWrite, phWrite, phSweep).dur + sum(opEpoch, round...).dur
	storageApply := sum(opLookup, phWrite).dur + sum(opScan, phWrite).dur + sum(opWrite, phWrite).dur + sum(opEpoch, phWrite).dur
	maintReads := sum(opLookup, phMaintain).dur + sum(opScan, phMaintain).dur
	rep.set("self.storage_ms", perRound(ms(storageAll)), "ms")
	rep.set("self.db_ms", perRound(ms(applyWin-storageApply)), "ms")
	rep.set("self.algebra_ms", perRound(ms(maintWin-applyStore.dur-maintReads)), "ms")
	rep.set("self.ivm_ms", perRound(ms(sweepWin-sum(opWrite, phSweep).dur-sum(opEpoch, phSweep).dur-sum(opLookup, phSweep).dur)), "ms")
	rep.set("self.read_storage_ms", perRound(ms(readStore)), "ms")
}

// runFeed runs feed-serve; see runBatch for the traced layout.
func runFeed(sc feedScale, c config, out io.Writer) (*report, error) {
	rep := newReport()
	if !c.trace {
		f, setupS, err := repeatSetup(func() (*feedDB, time.Duration, error) {
			f, err := setupFeed(sc, rand.New(rand.NewSource(c.seed)))
			if err != nil {
				return nil, 0, err
			}
			return f, f.total, nil
		}, func(f *feedDB) error { return f.d.Close() })
		if err != nil {
			return nil, err
		}
		rep.set("inputs_digest", inputsDigest(f.d), "hash")
		ph := runFeedPhase(f, sc, c.seed, c.dur, rep, nil)
		ph.endToEnd(rep, setupS)
		return rep, nil
	}

	base, err := setupFeed(sc, rand.New(rand.NewSource(c.seed)))
	if err != nil {
		return nil, err
	}
	rep.set("inputs_digest", inputsDigest(base.d), "hash")
	rep.set("db.load_s", base.load.Seconds(), "s")
	rep.set("ivm.create_views_s", base.cvs.Seconds(), "s")
	ref := runFeedPhase(base, sc, c.seed, c.dur/2, rep, nil)
	base = nil
	runtime.GC()

	tr := newTracer()
	f, err := setupFeed(sc, rand.New(rand.NewSource(c.seed)), idivm.WithEngine(&timedEngine{inner: idivm.MemEngine(), tr: tr}))
	if err != nil {
		return nil, err
	}
	ph := runFeedPhase(f, sc, c.seed, c.dur/2, rep, tr)
	ph.perLayer(rep, tr)
	rep.set("untraced.commit_ms_p50", median(ref.commitMs), "ms")
	rep.set("traced.commit_ms_p50", median(ph.commitMs), "ms")
	rep.set("trace.overhead_ratio", median(ph.commitMs)/median(ref.commitMs), "ratio")
	return rep, writeSpans(tr, c, out)
}
