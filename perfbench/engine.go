package main

import (
	"time"

	"idivm/internal/rel"
	"idivm/internal/storage"
)

// timedEngine is the traced run's storage engine: it wraps the default
// in-memory engine and hands out timedTables. It sits beneath
// storage.Handle, so the Handle stays the only place accesses are charged
// and the access counters read the same with tracing on or off.
type timedEngine struct {
	inner storage.Engine
	tr    *tracer
}

// Kind implements storage.Engine.
func (e *timedEngine) Kind() string { return "timed/" + e.inner.Kind() }

// Create implements storage.Engine.
func (e *timedEngine) Create(name string, schema rel.Schema) (storage.Table, error) {
	t, err := e.inner.Create(name, schema)
	if err != nil {
		return nil, err
	}
	return &timedTable{t: t, tr: e.tr}, nil
}

// timedTable forwards every storage.Table method to the engine's table.
// The data-plane calls (lookups, scans, writes) and the epoch calls each
// record one storage span; the uncharged catalog and snapshot utilities
// are forwarded untimed.
type timedTable struct {
	t  storage.Table
	tr *tracer
}

func (t *timedTable) Name() string                       { return t.t.Name() }
func (t *timedTable) Schema() rel.Schema                 { return t.t.Schema() }
func (t *timedTable) Len() int                           { return t.t.Len() }
func (t *timedTable) LenPre() int                        { return t.t.LenPre() }
func (t *timedTable) Rows(s rel.State) []rel.Tuple       { return t.t.Rows(s) }
func (t *timedTable) Parts() int                         { return t.t.Parts() }
func (t *timedTable) Relation(s rel.State) *rel.Relation { return t.t.Relation(s) }
func (t *timedTable) InEpoch() bool                      { return t.t.InEpoch() }

func (t *timedTable) IndexCard(s rel.State, attrs []string, vals []rel.Value) (int, int, error) {
	return t.t.IndexCard(s, attrs, vals)
}

func (t *timedTable) KeyFreq(s rel.State, attrs []string, vals []rel.Value) (int, error) {
	return t.t.KeyFreq(s, attrs, vals) //ivmlint:allow chargepath — timing wrapper beneath storage.Handle, which charges the call
}

func (t *timedTable) HeavyKeys(s rel.State, attrs []string, threshold int) ([]rel.KeyCount, error) {
	return t.t.HeavyKeys(s, attrs, threshold) //ivmlint:allow chargepath — timing wrapper beneath storage.Handle, which charges the call
}

func (t *timedTable) Scan(s rel.State) []rel.Tuple {
	start := time.Now()
	rows := t.t.Scan(s) //ivmlint:allow chargepath — timing wrapper beneath storage.Handle, which charges the call
	t.tr.storage(opScan, start, len(rows), false)
	return rows
}

func (t *timedTable) ScanPart(s rel.State, i int) []rel.Tuple {
	start := time.Now()
	rows := t.t.ScanPart(s, i) //ivmlint:allow chargepath — timing wrapper beneath storage.Handle, which charges the call
	t.tr.storage(opScan, start, len(rows), false)
	return rows
}

func (t *timedTable) Get(s rel.State, key []rel.Value) (rel.Tuple, bool) {
	start := time.Now()
	row, ok := t.t.Get(s, key) //ivmlint:allow chargepath — timing wrapper beneath storage.Handle, which charges the call
	t.tr.storage(opLookup, start, b2i(ok), false)
	return row, ok
}

// Lookup is the only lookup shape the interpreted evaluator uses; the
// compiled maintenance kernels probe through LookupInto. A Lookup on the
// pre-state is therefore a snapshot read, which the tracer keeps apart
// from the maintenance timeline when readers run concurrently with it.
func (t *timedTable) Lookup(s rel.State, attrs []string, vals []rel.Value) ([]rel.Tuple, error) {
	start := time.Now()
	rows, err := t.t.Lookup(s, attrs, vals) //ivmlint:allow chargepath — timing wrapper beneath storage.Handle, which charges the call
	t.tr.storage(opLookup, start, len(rows), s == rel.StatePre)
	return rows, err
}

func (t *timedTable) LookupInto(s rel.State, pl rel.PrepLookup, vals []rel.Value, keyBuf []byte, out []rel.Tuple) ([]rel.Tuple, []byte, error) {
	start := time.Now()
	n0 := len(out)
	out, keyBuf, err := t.t.LookupInto(s, pl, vals, keyBuf, out) //ivmlint:allow chargepath — timing wrapper beneath storage.Handle, which charges the call
	t.tr.storage(opLookup, start, len(out)-n0, false)
	return out, keyBuf, err
}

func (t *timedTable) Insert(row rel.Tuple) error {
	start := time.Now()
	err := t.t.Insert(row) //ivmlint:allow chargepath — timing wrapper beneath storage.Handle, which charges the call
	t.tr.storage(opWrite, start, b2i(err == nil), false)
	return err
}

func (t *timedTable) InsertIfAbsent(row rel.Tuple) (bool, error) {
	start := time.Now()
	ok, err := t.t.InsertIfAbsent(row) //ivmlint:allow chargepath — timing wrapper beneath storage.Handle, which charges the call
	t.tr.storage(opWrite, start, b2i(ok), false)
	return ok, err
}

func (t *timedTable) DeleteKey(key []rel.Value) bool {
	start := time.Now()
	ok := t.t.DeleteKey(key) //ivmlint:allow chargepath — timing wrapper beneath storage.Handle, which charges the call
	t.tr.storage(opWrite, start, b2i(ok), false)
	return ok
}

func (t *timedTable) DeleteWhere(attrs []string, vals []rel.Value) (int, error) {
	start := time.Now()
	n, err := t.t.DeleteWhere(attrs, vals) //ivmlint:allow chargepath — timing wrapper beneath storage.Handle, which charges the call
	t.tr.storage(opWrite, start, n, false)
	return n, err
}

func (t *timedTable) DeleteWhereFunc(attrs []string, vals []rel.Value, fn func(pre rel.Tuple)) (int, error) {
	start := time.Now()
	n, err := t.t.DeleteWhereFunc(attrs, vals, fn)
	t.tr.storage(opWrite, start, n, false)
	return n, err
}

func (t *timedTable) UpdateWhere(attrs []string, vals []rel.Value, setAttrs []string, setVals []rel.Value) (int, error) {
	start := time.Now()
	n, err := t.t.UpdateWhere(attrs, vals, setAttrs, setVals) //ivmlint:allow chargepath — timing wrapper beneath storage.Handle, which charges the call
	t.tr.storage(opWrite, start, n, false)
	return n, err
}

func (t *timedTable) UpdateWhereFunc(attrs []string, vals []rel.Value, setAttrs []string, setVals []rel.Value, fn func(pre, post rel.Tuple)) (int, error) {
	start := time.Now()
	n, err := t.t.UpdateWhereFunc(attrs, vals, setAttrs, setVals, fn)
	t.tr.storage(opWrite, start, n, false)
	return n, err
}

func (t *timedTable) UpdateKey(key []rel.Value, setAttrs []string, setVals []rel.Value) (bool, error) {
	start := time.Now()
	ok, err := t.t.UpdateKey(key, setAttrs, setVals) //ivmlint:allow chargepath — timing wrapper beneath storage.Handle, which charges the call
	t.tr.storage(opWrite, start, b2i(ok), false)
	return ok, err
}

func (t *timedTable) AdvanceEpoch() {
	start := time.Now()
	t.t.AdvanceEpoch()
	t.tr.storage(opEpoch, start, t.t.Len(), false)
}

func (t *timedTable) BeginEpoch() {
	start := time.Now()
	t.t.BeginEpoch()
	t.tr.storage(opEpoch, start, t.t.Len(), false)
}

func (t *timedTable) EndEpoch() {
	start := time.Now()
	t.t.EndEpoch()
	t.tr.storage(opEpoch, start, 0, false)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
