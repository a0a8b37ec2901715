package rel

import (
	"fmt"
	"sort"
	"sync"
)

// State selects which version of a stored table an access refers to during
// a maintenance epoch: the pre-state (before the logged modifications were
// applied) or the post-state (after). Outside an epoch both refer to the
// live data.
type State uint8

// The two table states of deferred IVM.
const (
	StatePost State = iota
	StatePre
)

// String returns "pre" or "post".
func (s State) String() string {
	if s == StatePre {
		return "pre"
	}
	return "post"
}

// tableCore is the shared storage of a table: rows, indexes and epoch
// state. Every access goes through core.mu:
//
//   - readers (Scan/Get/Lookup/Len/Rows/Relation) hold mu.RLock; many of
//     them may run concurrently (partition-parallel kernels, snapshot
//     readers);
//   - writers (Insert/Delete/Update/Begin-/Advance-/EndEpoch) hold
//     mu.Lock; writes are serialized per table by their single writer, so
//     writer contention is only with readers of *other* states (pre-state
//     probes), which the lock makes safe;
//   - lazy builds (secondary indexes, undo indexes, the cached pre-state
//     scan) happen under an RLock (readers probing a cold index), so the
//     index caches are additionally guarded by the leaf lock idxMu, and
//     each cache slot is a single-flight entry: many concurrent probes of
//     the same cold index — routine once the partition-parallel kernels fan
//     probes out — build it exactly once.
type tableCore struct {
	mu     sync.RWMutex
	name   string
	schema Schema
	keyIdx []int
	keySig string // index signature of the primary key
	rows   []Tuple
	byKey  map[string]int
	// written[i] is the epoch in which rows[i] was last inserted or
	// updated; it moves with the row on swap-remove. During an epoch a row
	// is fresh — absent from the pre-state in its current form — exactly
	// when written[i] == epoch.
	written []uint32
	// deletes counts removals since the key and index maps were last
	// compacted (see compactMaps).
	deletes int

	idxMu     sync.RWMutex         // guards the index cache maps (not the builds)
	secondary map[string]*idxEntry // post-state secondary indexes, single-flight
	idxBuilds int64                // secondary-index builds over the live rows (atomic; observability/tests)

	inEpoch bool
	epoch   uint32  // advanced by every Begin-/Advance-/EndEpoch; never 0
	ov      overlay // the current epoch's pre-state overlay
}

// overlay is what an epoch keeps beyond the live rows to answer pre-state
// reads: the pre-images of the pre-existing rows it changed. Together with
// the fresh marks (tableCore.written) it defines
//
//	pre-state = {live rows that are not fresh} ∪ undo.
//
// A key in undo never has a non-fresh live row: the first update or delete
// of a pre-existing row saves it here and leaves the slot fresh (or gone),
// and every later write to that key hits a fresh row. So undo holds each
// key at most once, and its size is the number of changed rows, never the
// table size.
type overlay struct {
	undoRows []Tuple              // first pre-images, in capture order
	undoIdx  map[string]*idxEntry // lazily built indexes over undoRows, by signature
	freshN   int                  // live rows with written[i] == epoch
	scan     *scanCell            // the pre-state materialized on first scan
}

// scanCell caches the materialized pre-state of one epoch. The pre-state
// cannot change inside an epoch, so the first scan builds it once and
// every later one (and every retained slice) sees the same rows.
type scanCell struct {
	once sync.Once
	rows []Tuple
}

// Table is the storage core of the default in-memory engine: a stored
// relation (base table, materialized view, or intermediate cache) with a
// primary-key hash index, lazily built secondary hash indexes, and a
// pre-state overlay used during a maintenance epoch (deferred IVM). The
// overlay keeps only the pre-images of the rows an epoch changed; pre-state
// reads combine it with the live rows, so opening or advancing an epoch
// copies nothing.
//
// Table implements pure storage semantics and charges nothing. The
// access-count cost model of the paper's Section 6 lives one layer up, in
// the storage.Handle decorator every consumer above the engine boundary
// goes through.
type Table struct {
	core *tableCore
}

// NewTable creates an empty stored table. The schema must declare a
// non-empty primary key: the paper's setting requires base tables with keys,
// and views/caches are keyed by their inferred ID attributes.
func NewTable(name string, schema Schema) (*Table, error) {
	if len(schema.Key) == 0 {
		return nil, fmt.Errorf("rel: table %q needs a primary key", name)
	}
	idx, err := schema.Indices(schema.Key)
	if err != nil {
		return nil, err
	}
	return &Table{core: &tableCore{
		name:      name,
		schema:    schema.Clone(),
		keyIdx:    idx,
		keySig:    indexSig(schema.Key),
		byKey:     make(map[string]int),
		secondary: make(map[string]*idxEntry),
		epoch:     1,
	}}, nil
}

// MustNewTable is NewTable that panics on error, for generators and tests.
func MustNewTable(name string, schema Schema) *Table {
	t, err := NewTable(name, schema)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the table's name.
func (t *Table) Name() string { return t.core.name }

// Schema returns the table's schema.
func (t *Table) Schema() Schema { return t.core.schema }

// Len returns the number of live (post-state) rows.
func (t *Table) Len() int {
	t.core.mu.RLock()
	defer t.core.mu.RUnlock()
	return len(t.core.rows)
}

// LenPre returns the number of pre-state rows (same as Len outside an
// epoch, where the overlay is empty).
func (t *Table) LenPre() int {
	t.core.mu.RLock()
	defer t.core.mu.RUnlock()
	return t.core.lenOf(StatePre)
}

// lenOf returns the row count of state s: live rows, or live rows minus
// fresh ones plus undo pre-images. The caller holds c.mu.
func (c *tableCore) lenOf(s State) int {
	if c.pre(s) {
		return len(c.rows) - c.ov.freshN + len(c.ov.undoRows)
	}
	return len(c.rows)
}

func (c *tableCore) keyOf(row Tuple) string { return KeyOf(row, c.keyIdx) }

// pre reports whether a read of state s must go through the overlay.
func (c *tableCore) pre(s State) bool { return s == StatePre && c.inEpoch }

// fresh reports whether the live row at position i was written in the
// current epoch.
func (c *tableCore) fresh(i int) bool { return c.written[i] == c.epoch }

// stateRows returns the rows of state s: the live slice, or the cached
// pre-state materialization (built on first use in the epoch). The caller
// holds c.mu.
func (c *tableCore) stateRows(s State) []Tuple {
	if !c.pre(s) {
		return c.rows
	}
	cell := c.ov.scan
	cell.once.Do(func() {
		rows := make([]Tuple, 0, c.lenOf(s))
		for i, r := range c.rows {
			if !c.fresh(i) {
				rows = append(rows, r)
			}
		}
		cell.rows = append(rows, c.ov.undoRows...)
	})
	return cell.rows
}

// Rows returns the raw tuples of the requested state. It exists for
// verification, snapshotting and test oracles. Callers must not mutate
// the tuples, and —
// when other goroutines may write the table — must not retain a post-state
// slice across a mutation.
func (t *Table) Rows(s State) []Tuple {
	t.core.mu.RLock()
	defer t.core.mu.RUnlock()
	return t.core.stateRows(s)
}

// Scan reads every tuple of the requested state. Callers must not mutate
// the returned tuples. A post-state result aliases table storage and is
// only stable while no writer runs; a pre-state result is the epoch's
// cached materialization, which no later write touches.
func (t *Table) Scan(s State) []Tuple {
	t.core.mu.RLock()
	defer t.core.mu.RUnlock()
	return t.core.stateRows(s)
}

// Parts reports the number of storage partitions: always 1 — the in-memory
// table is unpartitioned.
func (t *Table) Parts() int { return 1 }

// ScanPart reads partition i of the requested state. With a single
// partition it is exactly Scan; any other index is a caller bug.
func (t *Table) ScanPart(s State, i int) []Tuple {
	if i != 0 {
		panic(fmt.Sprintf("rel: table %q has 1 part, ScanPart(%d)", t.core.name, i))
	}
	return t.Scan(s)
}

// Relation materializes the requested state as a Relation (snapshot
// utility).
func (t *Table) Relation(s State) *Relation {
	t.core.mu.RLock()
	defer t.core.mu.RUnlock()
	r := NewRelation(t.core.schema)
	r.Tuples = append(r.Tuples, t.core.stateRows(s)...)
	return r
}

// Get fetches the row with the given primary-key values. A pre-state read
// checks the undo pre-images first, then accepts a live row only if the
// epoch has not written it.
func (t *Table) Get(s State, key []Value) (Tuple, bool) {
	var buf [64]byte
	k := AppendTupleKey(buf[:0], key)
	c := t.core
	c.mu.RLock()
	defer c.mu.RUnlock()
	pre := c.pre(s)
	if pre && len(c.ov.undoRows) > 0 {
		if u := c.undoIndex(c.keySig, c.keyIdx).buckets[string(k)]; len(u) > 0 {
			return c.ov.undoRows[u[0]], true
		}
	}
	i, ok := c.byKey[string(k)]
	if !ok || (pre && c.fresh(i)) {
		return nil, false
	}
	return c.rows[i], true
}

// probe appends the rows of state s whose attributes under the secondary
// index sig encode to key. Pre-state probes take the live bucket minus
// fresh rows plus the matching undo pre-images. The caller holds c.mu.
func (c *tableCore) probe(s State, attrs []string, sig string, key []byte, out []Tuple) ([]Tuple, error) {
	idx, err := c.indexOnSig(attrs, sig)
	if err != nil {
		return out, err
	}
	positions := idx.buckets[string(key)]
	if out == nil {
		out = make([]Tuple, 0, len(positions))
	}
	if !c.pre(s) {
		for _, p := range positions {
			out = append(out, c.rows[p])
		}
		return out, nil
	}
	for _, p := range positions {
		if !c.fresh(p) {
			out = append(out, c.rows[p])
		}
	}
	if len(c.ov.undoRows) > 0 {
		for _, u := range c.undoIndex(sig, idx.attrIdx).buckets[string(key)] {
			out = append(out, c.ov.undoRows[u])
		}
	}
	return out, nil
}

// count is probe's match count without materializing the rows. The caller
// holds c.mu.
func (c *tableCore) count(s State, attrs []string, vals []Value) (int, error) {
	sig := indexSig(attrs)
	idx, err := c.indexOnSig(attrs, sig)
	if err != nil {
		return 0, err
	}
	var buf [64]byte
	key := AppendTupleKey(buf[:0], vals)
	positions := idx.buckets[string(key)]
	if !c.pre(s) {
		return len(positions), nil
	}
	n := len(positions)
	if c.ov.freshN > 0 {
		for _, p := range positions {
			if c.fresh(p) {
				n--
			}
		}
	}
	if len(c.ov.undoRows) > 0 {
		n += len(c.undoIndex(sig, idx.attrIdx).buckets[string(key)])
	}
	return n, nil
}

// Lookup probes a (lazily built) secondary hash index over the named
// attributes.
func (t *Table) Lookup(s State, attrs []string, vals []Value) ([]Tuple, error) {
	var buf [64]byte
	key := AppendTupleKey(buf[:0], vals)
	t.core.mu.RLock()
	defer t.core.mu.RUnlock()
	out, err := t.core.probe(s, attrs, indexSig(attrs), key, nil)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PrepLookup is a reusable secondary-index probe specification: the
// attribute list together with its precomputed index signature. Preparing
// it once hoists the per-call signature work out of probe loops.
type PrepLookup struct {
	attrs []string
	sig   string
}

// PrepareLookup builds a prepared probe over the named attributes.
func PrepareLookup(attrs []string) PrepLookup {
	return PrepLookup{attrs: append([]string(nil), attrs...), sig: indexSig(attrs)}
}

// Attrs returns the probe's attribute list.
func (p PrepLookup) Attrs() []string { return p.attrs }

// LookupInto is Lookup through a prepared probe, appending the matches to
// out (reusing its capacity) instead of allocating a result slice. keyBuf
// is an optional scratch buffer for the probe key encoding; the (possibly
// grown) buffer is returned for reuse.
func (t *Table) LookupInto(s State, pl PrepLookup, vals []Value, keyBuf []byte, out []Tuple) ([]Tuple, []byte, error) {
	keyBuf = AppendTupleKey(keyBuf[:0], vals)
	t.core.mu.RLock()
	defer t.core.mu.RUnlock()
	out, err := t.core.probe(s, pl.attrs, pl.sig, keyBuf, out)
	return out, keyBuf, err
}

// IndexCard reports (p, n): how many rows of the requested state match vals
// on the secondary index over attrs, and the state's total row count —
// catalog metadata, the cardinality a planner consults when choosing
// between an index probe (1 lookup + p reads) and a full scan (n reads).
func (t *Table) IndexCard(s State, attrs []string, vals []Value) (p, n int, err error) {
	c := t.core
	c.mu.RLock()
	defer c.mu.RUnlock()
	p, err = c.count(s, attrs, vals)
	if err != nil {
		return 0, 0, err
	}
	return p, c.lenOf(s), nil
}

// KeyCount is one entry of a key-frequency statistic: a distinct value
// combination of an indexed attribute set together with how many rows of
// the inspected state carry it. Key is the canonical tuple-key encoding of
// Vals (the same encoding AppendTupleKey produces for a probe over the
// same attribute order), so planners can test probe keys against a heavy
// set without re-encoding.
type KeyCount struct {
	Key   string
	Vals  Tuple
	Count int
}

// KeyFreq reports how many rows of the requested state match vals on the
// secondary index over attrs — catalog metadata like IndexCard, but
// without the total row count. The statistic rides the incrementally
// maintained secondary indexes (and, for the pre-state, the overlay), so
// it is exact at every epoch boundary and costs one hash probe plus a pass
// over the matched bucket.
func (t *Table) KeyFreq(s State, attrs []string, vals []Value) (int, error) {
	t.core.mu.RLock()
	defer t.core.mu.RUnlock()
	return t.core.count(s, attrs, vals)
}

// HeavyKeys reports every distinct value combination over attrs whose
// frequency in the requested state is at least threshold, sorted by the
// canonical key encoding. A threshold below 1 is treated as 1. Like
// IndexCard, this is uncharged catalog metadata. Post-state frequencies
// are the bucket sizes of the incrementally maintained secondary index;
// pre-state ones are counted over the epoch's cached pre-state.
func (t *Table) HeavyKeys(s State, attrs []string, threshold int) ([]KeyCount, error) {
	if threshold < 1 {
		threshold = 1
	}
	c := t.core
	c.mu.RLock()
	defer c.mu.RUnlock()
	rows := c.stateRows(s)
	var idx *hashIndex
	if c.pre(s) {
		attrIdx, err := c.schema.Indices(attrs)
		if err != nil {
			return nil, err
		}
		idx = buildHashIndex(rows, attrIdx)
	} else {
		var err error
		if idx, err = c.indexOn(attrs); err != nil {
			return nil, err
		}
	}
	var out []KeyCount
	// Map order is fine here: results are sorted by encoded key below.
	for k, b := range idx.buckets {
		if len(b) < threshold {
			continue
		}
		rep := rows[b[0]]
		vals := make(Tuple, len(idx.attrIdx))
		for i, j := range idx.attrIdx {
			vals[i] = rep[j]
		}
		out = append(out, KeyCount{Key: k, Vals: vals, Count: len(b)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// Insert adds a row, failing on a primary-key conflict.
func (t *Table) Insert(row Tuple) error {
	c := t.core
	if len(row) != len(c.schema.Attrs) {
		return fmt.Errorf("rel: table %q: tuple width %d != schema width %d", c.name, len(row), len(c.schema.Attrs))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := c.keyOf(row)
	if _, dup := c.byKey[k]; dup {
		return fmt.Errorf("rel: table %q: duplicate key %s", c.name, Tuple(row).String())
	}
	c.appendRow(k, row)
	return nil
}

// appendRow stores a copy of row under key k as a fresh row. The caller
// holds the write lock and has checked that k is absent.
func (c *tableCore) appendRow(k string, row Tuple) {
	pos := len(c.rows)
	c.byKey[k] = pos
	c.rows = append(c.rows, row.Clone())
	c.written = append(c.written, c.epoch)
	if c.inEpoch {
		c.ov.freshN++
	}
	c.indexesAdd(c.rows[pos], pos)
}

// MustInsert is Insert that panics on error, for generators and tests.
func (t *Table) MustInsert(vals ...Value) {
	if err := t.Insert(Tuple(vals)); err != nil {
		panic(err)
	}
}

// InsertIfAbsent inserts the row unless an identical row already exists
// (the APPLY semantics of insert i-diffs, Section 2). It returns an error
// if a row with the same key but different non-key values exists, which
// would be a primary-key violation and indicates a non-effective diff.
func (t *Table) InsertIfAbsent(row Tuple) (inserted bool, err error) {
	c := t.core
	if len(row) != len(c.schema.Attrs) {
		return false, fmt.Errorf("rel: table %q: tuple width %d != schema width %d", c.name, len(row), len(c.schema.Attrs))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := c.keyOf(row)
	if i, ok := c.byKey[k]; ok {
		if c.rows[i].Equal(row) {
			return false, nil
		}
		return false, fmt.Errorf("rel: table %q: key conflict inserting %s over %s", c.name, row.String(), c.rows[i].String())
	}
	c.appendRow(k, row)
	return true, nil
}

// DeleteKey removes the row with the given primary-key values if present.
func (t *Table) DeleteKey(key []Value) bool {
	var buf [64]byte
	k := AppendTupleKey(buf[:0], key)
	c := t.core
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.byKey[string(k)]
	if !ok {
		return false
	}
	c.removeAt(i)
	return true
}

// DeleteWhere removes every row whose attrs equal vals (an ID-subset
// delete, the APPLY semantics of delete i-diffs), returning the removal
// count.
func (t *Table) DeleteWhere(attrs []string, vals []Value) (int, error) {
	return t.DeleteWhereFunc(attrs, vals, nil)
}

// DeleteWhereFunc is DeleteWhere that additionally invokes fn (when
// non-nil) with the full pre-image of every removed row, in removal
// order. The images are captured inside the critical section where they
// are already in hand — no extra probes — and alias stored tuples, which
// are immutable once stored (updates clone). fn must not call back into
// the table. It is how the Δ-script executor records a view's applied
// deletes into the derived modification log that cascaded views consume.
func (t *Table) DeleteWhereFunc(attrs []string, vals []Value, fn func(pre Tuple)) (int, error) {
	c := t.core
	c.mu.Lock()
	defer c.mu.Unlock()
	idx, err := c.indexOn(attrs)
	if err != nil {
		return 0, err
	}
	positions := idx.get(vals)
	if len(positions) == 0 {
		return 0, nil
	}
	// Collect keys (and pre-images) first: removeAt perturbs positions.
	keys := make([]string, 0, len(positions))
	var pres []Tuple
	if fn != nil {
		pres = make([]Tuple, 0, len(positions))
	}
	for _, p := range positions {
		keys = append(keys, c.keyOf(c.rows[p]))
		if fn != nil {
			pres = append(pres, c.rows[p])
		}
	}
	for _, k := range keys {
		if i, ok := c.byKey[k]; ok {
			c.removeAt(i)
		}
	}
	for _, r := range pres {
		fn(r)
	}
	return len(keys), nil
}

// UpdateWhere updates every row whose attrs equal vals, overwriting the
// setAttrs columns with setVals, and returns the update count. Key
// attributes cannot be updated (they are immutable in the paper's model).
func (t *Table) UpdateWhere(attrs []string, vals []Value, setAttrs []string, setVals []Value) (int, error) {
	return t.UpdateWhereFunc(attrs, vals, setAttrs, setVals, nil)
}

// UpdateWhereFunc is UpdateWhere that additionally invokes fn (when
// non-nil) with the full pre- and post-image of every updated row, in
// update order. Like DeleteWhereFunc, the images come from the critical
// section where the update already holds both tuples (the old row is never
// written in place, so it stays valid as the pre-image); fn must not call
// back into the table.
func (t *Table) UpdateWhereFunc(attrs []string, vals []Value, setAttrs []string, setVals []Value, fn func(pre, post Tuple)) (int, error) {
	c := t.core
	for _, a := range setAttrs {
		if Contains(c.schema.Key, a) {
			return 0, fmt.Errorf("rel: table %q: cannot update key attribute %q", c.name, a)
		}
	}
	setIdx, err := c.schema.Indices(setAttrs)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	idx, err := c.indexOn(attrs)
	if err != nil {
		return 0, err
	}
	positions := idx.get(vals)
	for _, p := range positions {
		old := c.rows[p]
		nr := old.Clone() // stored rows are immutable: readers and undo may hold old
		for i, j := range setIdx {
			nr[j] = setVals[i]
		}
		if c.inEpoch && !c.fresh(p) {
			c.saveUndo(old)
			c.ov.freshN++
		}
		c.written[p] = c.epoch
		c.rows[p] = nr
		c.indexesUpdate(old, nr, p)
		if fn != nil {
			fn(old, nr)
		}
	}
	return len(positions), nil
}

// UpdateKey updates the single row with the given primary key.
func (t *Table) UpdateKey(key []Value, setAttrs []string, setVals []Value) (bool, error) {
	n, err := t.UpdateWhere(t.core.schema.Key, key, setAttrs, setVals)
	return n > 0, err
}

// removeAt swap-removes the row at position i; the last row and its fresh
// mark move into the hole. Inside an epoch, removing a pre-existing row
// saves its pre-image. The caller holds the write lock.
func (c *tableCore) removeAt(i int) {
	row := c.rows[i]
	k := c.keyOf(row)
	if c.inEpoch {
		if c.fresh(i) {
			c.ov.freshN--
		} else {
			c.saveUndo(row)
		}
	}
	c.indexesRemove(row, i)
	delete(c.byKey, k)
	last := len(c.rows) - 1
	if i != last {
		moved := c.rows[last]
		c.rows[i] = moved
		c.written[i] = c.written[last]
		c.byKey[c.keyOf(moved)] = i
		c.indexesMove(moved, last, i)
	}
	c.rows[last] = nil
	c.rows = c.rows[:last]
	c.written = c.written[:last]
	if c.deletes++; c.deletes > len(c.rows)/4+64 {
		c.compactMaps()
	}
}

// compactMaps copies the primary-key map and every secondary index map
// into fresh maps sized to their contents. Go maps never shrink, and a
// workload that deletes keys while inserting new ones leaves deleted slots
// behind that make a map grow well past its live size. Compacting after a
// quarter of the table's size in deletes keeps the maps proportional to
// the live rows at an amortized O(1) per delete. The caller holds the
// write lock.
func (c *tableCore) compactMaps() {
	c.deletes = 0
	byKey := make(map[string]int, len(c.byKey))
	for k, i := range c.byKey { // order-free: map-to-map copy
		byKey[k] = i
	}
	c.byKey = byKey
	c.idxMu.RLock()
	defer c.idxMu.RUnlock()
	for _, e := range c.secondary { // order-free: every index is compacted
		if e.h != nil {
			e.h.compact()
		}
	}
}

// saveUndo records the pre-image of a pre-existing row the epoch is about
// to change for the first time, and registers it with every undo index
// built so far. The caller holds the write lock.
func (c *tableCore) saveUndo(row Tuple) {
	pos := len(c.ov.undoRows)
	c.ov.undoRows = append(c.ov.undoRows, row)
	for _, e := range c.ov.undoIdx { // order-free: every index is updated
		e.h.add(row, pos)
	}
}

// BeginEpoch opens a maintenance epoch: the current contents become the
// pre-state. Subsequent mutations affect only the post-state;
// Scan/Get/Lookup with StatePre see the contents as of this call, answered
// from the live rows plus the pre-images of the rows the epoch changes
// (Section 4's Input_pre, read from the post-state and the changes).
// Opening is O(1): nothing is copied.
func (t *Table) BeginEpoch() {
	c := t.core
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inEpoch {
		return
	}
	c.inEpoch = true
	c.resetOverlay()
}

// AdvanceEpoch atomically moves the pre-state to the current contents —
// EndEpoch plus BeginEpoch under a single critical section, so a
// concurrent StatePre reader always resolves either the old or the new
// pre-state and never a mix. The serving layer uses it to move readers to
// the next round's state without ever leaving the epoch. Like BeginEpoch
// it only resets the overlay: O(1) regardless of table size.
func (t *Table) AdvanceEpoch() {
	c := t.core
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inEpoch = true
	c.resetOverlay()
}

// EndEpoch closes the epoch and discards its overlay.
func (t *Table) EndEpoch() {
	c := t.core
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inEpoch = false
	c.resetOverlay()
}

// resetOverlay starts a new epoch number, which unmarks every fresh row,
// and drops the undo pre-images, their indexes and the cached pre-state
// scan. The caller holds the write lock.
func (c *tableCore) resetOverlay() {
	if c.epoch++; c.epoch == 0 {
		// The counter wrapped: clear every stamp so none can match a
		// reused epoch number.
		clear(c.written)
		c.epoch = 1
	}
	c.ov = overlay{scan: new(scanCell)}
}

// InEpoch reports whether a maintenance epoch is active.
func (t *Table) InEpoch() bool {
	t.core.mu.RLock()
	defer t.core.mu.RUnlock()
	return t.core.inEpoch
}

// Clone returns an independent deep copy of the table's post-state (no
// epoch state).
func (t *Table) Clone() *Table {
	c := MustNewTable(t.core.name, t.core.schema)
	t.core.mu.RLock()
	defer t.core.mu.RUnlock()
	for _, r := range t.core.rows {
		if err := c.Insert(r); err != nil {
			panic(err)
		}
	}
	return c
}
