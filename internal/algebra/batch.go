// Columnar kernels: the executor of compiled plans. ExecPlan.Run drives
// the run methods below, which move column vectors (rel.Batch) instead
// of boxed tuples:
//
//   - σ runs type-specialized predicate loops over []int64 / []float64 /
//     []string payloads (no rel.Value boxing per row) and narrows the
//     batch with a selection vector — payloads are never copied;
//   - equi-joins over derived inputs hash 64-bit FNV-1a digests of the
//     canonical key encoding (no per-row string allocation) and emit
//     gather-vector pairs, so both join sides stay zero-copy; stored-side
//     probe joins fill the probe buffer from columns and append only the
//     probed tuples' values;
//   - γ pre-aggregates through an int64-keyed group map when the key
//     column is a uniform int vector, falling back to the canonical
//     encoded-key map otherwise.
//
// Every kernel reproduces the interpreted evaluator bit-for-bit: row
// order, float widening in comparisons (Value.compare), NULL folding
// (every comparison with NULL is false, including <>), Same-based key
// equality (EncodeKey is canonical and injective w.r.t. Same, so hash
// buckets verified column-wise with Same reproduce Eval's string-keyed
// buckets exactly), group first-appearance order, and float aggregation
// fold order. Storage is touched through exactly the Handle calls Eval
// makes — batches form right after a charged Scan/Lookup and materialize
// only at the plan root — so state, reports and access counters are
// byte-identical to Eval's.
//
// OpWorkers parallelism follows one discipline. Work splits into
// partitions that exist independently of the worker count where
// semantics demand it (group-by key routing) and into contiguous chunks
// where order alone matters (scans, probes). Each worker owns its slot of
// a results slice, a probe clone and a private CostCounter shard obtained
// via WithCounter. Merges concatenate per-chunk results in chunk (or
// part) order and fold counter shards in the same fixed order, which
// reproduces the sequential run row-for-row and charge-for-charge — the
// property the differential matrix in internal/ivm pins across engines
// under -race. Goroutines are only ever launched via pool.go's
// parallelFor; this file stays free of go statements (ivmlint).

package algebra

import (
	"sort"
	"strings"

	"idivm/internal/expr"
	"idivm/internal/rel"
	"idivm/internal/storage"
)

// ---------------------------------------------------------------------------
// Leaves

func (c *cStored) run(env Env) (*rel.Batch, error) {
	t, err := env.Table(c.table)
	if err != nil {
		return nil, err
	}
	return rel.FromTuples(c.sch, scanStored(env, t, c.st)), nil
}

// scanStored scans a stored table on the caller's counter. With OpWorkers
// a partitioned table is scanned part-by-part on the worker pool, each
// part on its own counter shard, concatenated in part order; unpartitioned
// tables and small inputs take the flat Scan.
func scanStored(env Env, t *storage.Handle, st rel.State) []rel.Tuple {
	np, w := t.Parts(), opWorkers(env)
	if w < 2 || np < 2 || t.Len() < MinOpRows {
		return t.Scan(st)
	}
	parts := make([][]rel.Tuple, np)
	shards := make([]rel.CostCounter, np)
	parallelFor(w, np, func(i int) {
		parts[i] = t.WithCounter(&shards[i]).ScanPart(st, i)
	})
	total := 0
	for i := range parts {
		t.Merge(shards[i])
		total += len(parts[i])
	}
	out := make([]rel.Tuple, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func (c *cBinding) run(env Env) (*rel.Batch, error) {
	rr, err := env.Rel(c.name)
	if err != nil {
		return nil, err
	}
	return rel.FromTuples(c.sch, rr.Tuples), nil
}

func (c *cEmpty) run(Env) (*rel.Batch, error) { return rel.NewBatch(c.sch), nil }

// ---------------------------------------------------------------------------
// Specialized predicate evaluation (σ)

// bTerm is one col-vs-literal comparison conjunct, specialized at compile
// time. op is applied as <col> op <lit> (flipped from the source when the
// literal was on the left).
type bTerm struct {
	col int
	op  expr.CmpOp
	lit rel.Value
}

// bPred is a batch-compiled predicate: the col-vs-literal conjuncts run
// as typed loops, any remaining conjuncts (rest) evaluate generically on
// scratch rows.
type bPred struct {
	terms []bTerm
	rest  *expr.Compiled // nil when the terms cover the whole predicate
}

// flipCmp mirrors a comparison for operand swap: lit op col ≡ col flip(op) lit.
func flipCmp(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.LT:
		return expr.GT
	case expr.LE:
		return expr.GE
	case expr.GT:
		return expr.LT
	case expr.GE:
		return expr.LE
	}
	return op
}

// compileBatchPred splits a predicate into specialized col-vs-literal
// terms and a generic rest, over the given input schema.
func compileBatchPred(e expr.Expr, sch rel.Schema) (*bPred, error) {
	p := &bPred{}
	var rest []expr.Expr
	for _, cj := range expr.Conjuncts(e) {
		if cm, ok := cj.(expr.Cmp); ok {
			if col, okc := cm.L.(expr.Col); okc {
				if lit, okl := cm.R.(expr.Lit); okl {
					if j := sch.Index(col.Name); j >= 0 {
						p.terms = append(p.terms, bTerm{col: j, op: cm.Op, lit: lit.Val})
						continue
					}
				}
			}
			if lit, okl := cm.L.(expr.Lit); okl {
				if col, okc := cm.R.(expr.Col); okc {
					if j := sch.Index(col.Name); j >= 0 {
						p.terms = append(p.terms, bTerm{col: j, op: flipCmp(cm.Op), lit: lit.Val})
						continue
					}
				}
			}
		}
		rest = append(rest, cj)
	}
	if len(rest) > 0 {
		r := expr.And(rest...)
		if !expr.IsTrueLit(r) {
			var err error
			if p.rest, err = expr.Compile(r, sch); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// cmpOutcome applies op to a Value.Compare outcome with Cmp.eval
// semantics: an incomparable pair (ok=false — NULL involved or
// non-numeric kind mismatch) is false for every operator, including <>.
func cmpOutcome(cv int, ok bool, op expr.CmpOp) bool {
	if !ok {
		return false
	}
	switch op {
	case expr.EQ:
		return cv == 0
	case expr.NE:
		return cv != 0
	case expr.LT:
		return cv < 0
	case expr.LE:
		return cv <= 0
	case expr.GT:
		return cv > 0
	case expr.GE:
		return cv >= 0
	}
	return false
}

// passFloat compares through the same three-way float ordering as
// Value.compare (NaN folds to "equal", matching the a<b/a>b/default
// switch there), then applies op.
func passFloat(a, b float64, op expr.CmpOp) bool {
	var cv int
	switch {
	case a < b:
		cv = -1
	case a > b:
		cv = 1
	}
	return cmpOutcome(cv, true, op)
}

// applyDense evaluates the term over all n logical rows of c, appending
// passing row indices to sel. The per-kind loops read payload slices
// directly — no Value is constructed per row.
func (tm *bTerm) applyDense(c *rel.ColVec, n int, sel []int32) []int32 {
	if tm.lit.IsNull() {
		return sel
	}
	idx, nulls := c.Idx, c.Nulls
	switch c.Kind {
	case rel.VecNull:
		return sel
	case rel.VecInt:
		if !tm.lit.IsNumeric() {
			return sel
		}
		litF := tm.lit.AsFloat()
		xs := c.Ints
		for i := 0; i < n; i++ {
			p := i
			if idx != nil {
				p = int(idx[i])
			}
			if nulls != nil && nulls[p] {
				continue
			}
			if passFloat(float64(xs[p]), litF, tm.op) {
				sel = append(sel, int32(i))
			}
		}
	case rel.VecFloat:
		if !tm.lit.IsNumeric() {
			return sel
		}
		litF := tm.lit.AsFloat()
		xs := c.Floats
		for i := 0; i < n; i++ {
			p := i
			if idx != nil {
				p = int(idx[i])
			}
			if nulls != nil && nulls[p] {
				continue
			}
			if passFloat(xs[p], litF, tm.op) {
				sel = append(sel, int32(i))
			}
		}
	case rel.VecStr:
		if tm.lit.Kind != rel.KindString {
			return sel
		}
		lit := tm.lit.Text()
		xs := c.Strs
		for i := 0; i < n; i++ {
			p := i
			if idx != nil {
				p = int(idx[i])
			}
			if nulls != nil && nulls[p] {
				continue
			}
			if cmpOutcome(strings.Compare(xs[p], lit), true, tm.op) {
				sel = append(sel, int32(i))
			}
		}
	case rel.VecBool:
		if tm.lit.Kind != rel.KindBool {
			return sel
		}
		lb := tm.lit.AsBool()
		xs := c.Bools
		for i := 0; i < n; i++ {
			p := i
			if idx != nil {
				p = int(idx[i])
			}
			if nulls != nil && nulls[p] {
				continue
			}
			cv := 0
			switch {
			case xs[p] == lb:
			case !xs[p]:
				cv = -1
			default:
				cv = 1
			}
			if cmpOutcome(cv, true, tm.op) {
				sel = append(sel, int32(i))
			}
		}
	default: // VecAny
		for i := 0; i < n; i++ {
			cv, ok := c.Vals[c.Phys(i)].Compare(tm.lit)
			if cmpOutcome(cv, ok, tm.op) {
				sel = append(sel, int32(i))
			}
		}
	}
	return sel
}

// passAt evaluates the term for one logical row (secondary conjuncts,
// applied to an already-narrowed selection).
func (tm *bTerm) passAt(c *rel.ColVec, i int) bool {
	if tm.lit.IsNull() {
		return false
	}
	switch c.Kind {
	case rel.VecNull:
		return false
	case rel.VecInt:
		if !tm.lit.IsNumeric() {
			return false
		}
		p := c.Phys(i)
		if c.Nulls != nil && c.Nulls[p] {
			return false
		}
		return passFloat(float64(c.Ints[p]), tm.lit.AsFloat(), tm.op)
	case rel.VecFloat:
		if !tm.lit.IsNumeric() {
			return false
		}
		p := c.Phys(i)
		if c.Nulls != nil && c.Nulls[p] {
			return false
		}
		return passFloat(c.Floats[p], tm.lit.AsFloat(), tm.op)
	}
	cv, ok := c.Value(i).Compare(tm.lit)
	return cmpOutcome(cv, ok, tm.op)
}

// filter narrows a batch by the predicate, returning a gathered view
// (shared payloads, fresh selection vector). An all-pass filter returns
// the input batch unchanged.
func (p *bPred) filter(b *rel.Batch) *rel.Batch {
	n := b.Len()
	if n == 0 || (len(p.terms) == 0 && p.rest == nil) {
		return b
	}
	var sel []int32
	applied := false
	for t := range p.terms {
		tm := &p.terms[t]
		col := &b.Cols[tm.col]
		if !applied {
			sel = tm.applyDense(col, n, make([]int32, 0, n))
			applied = true
		} else {
			kept := sel[:0]
			for _, i := range sel {
				if tm.passAt(col, int(i)) {
					kept = append(kept, i)
				}
			}
			sel = kept
		}
		if len(sel) == 0 {
			break
		}
	}
	if p.rest != nil {
		var buf rel.Tuple
		if !applied {
			sel = make([]int32, 0, n)
			for i := 0; i < n; i++ {
				buf = b.Row(i, buf)
				if p.rest.EvalBool(buf) {
					sel = append(sel, int32(i))
				}
			}
		} else if len(sel) > 0 {
			kept := sel[:0]
			for _, i := range sel {
				buf = b.Row(int(i), buf)
				if p.rest.EvalBool(buf) {
					kept = append(kept, i)
				}
			}
			sel = kept
		}
	}
	return b.Gather(sel)
}

// ---------------------------------------------------------------------------
// σ and π kernels

func (c *cSelect) run(env Env) (*rel.Batch, error) {
	child, err := c.child.run(env)
	if err != nil {
		return nil, err
	}
	return c.pred.filter(child), nil
}

// run makes evalStoredSelect's index-vs-scan decision through the same
// Handle calls; the scan path filters columnarly.
func (c *cStoredSelect) run(env Env) (*rel.Batch, error) {
	t, err := env.Table(c.table)
	if err != nil {
		return nil, err
	}
	if len(c.eqBare) > 0 {
		p, n, err := t.IndexCard(c.st, c.eqBare, c.eqVals)
		if err != nil {
			return nil, err
		}
		if p+1 < n {
			rows, keyBuf, err := t.LookupInto(c.st, c.prep, c.eqVals, c.keyBuf, make([]rel.Tuple, 0, p))
			c.keyBuf = keyBuf
			if err != nil {
				return nil, err
			}
			if c.residual != nil {
				kept := rows[:0]
				for _, r := range rows {
					if c.residual.EvalBool(r) {
						kept = append(kept, r)
					}
				}
				rows = kept
			}
			return rel.FromTuples(c.sch, rows), nil
		}
	}
	return c.full.filter(rel.FromTuples(c.sch, scanStored(env, t, c.st))), nil
}

func (c *cProject) run(env Env) (*rel.Batch, error) {
	child, err := c.child.run(env)
	if err != nil {
		return nil, err
	}
	out := &rel.Batch{Schema: c.sch, Cols: make([]rel.ColVec, len(c.items)), N: child.Len()}
	var generic []int
	for i := range c.items {
		if j := c.colIdx[i]; j >= 0 {
			// Plain column reference: alias the child vector (payload and
			// indirection shared, zero copies, zero evaluations).
			out.Cols[i] = child.Cols[j]
			continue
		}
		generic = append(generic, i)
	}
	if len(generic) > 0 {
		builders := make([]rel.ColBuilder, len(generic))
		n := child.Len()
		for k := range builders {
			builders[k].Grow(n)
		}
		var buf rel.Tuple
		for r := 0; r < n; r++ {
			buf = child.Row(r, buf)
			for k, i := range generic {
				builders[k].Append(c.items[i].Eval(buf))
			}
		}
		for k, i := range generic {
			out.Cols[i] = builders[k].Vec()
		}
	}
	return out, nil
}

func (c *cUnion) run(env Env) (*rel.Batch, error) {
	left, err := c.left.run(env)
	if err != nil {
		return nil, err
	}
	right, err := c.right.run(env)
	if err != nil {
		return nil, err
	}
	out := &rel.Batch{Schema: c.sch, Cols: make([]rel.ColVec, c.w+1), N: left.Len() + right.Len()}
	for j := 0; j < c.w; j++ {
		var cb rel.ColBuilder
		cb.Grow(out.N)
		cb.AppendVec(&left.Cols[j], left.Len())
		cb.AppendVec(&right.Cols[j], right.Len())
		out.Cols[j] = cb.Vec()
	}
	branch := make([]int64, out.N)
	for i := left.Len(); i < out.N; i++ {
		branch[i] = 1
	}
	out.Cols[c.w] = rel.ColVec{Kind: rel.VecInt, Ints: branch}
	return out, nil
}

// ---------------------------------------------------------------------------
// Join kernels

// fnv1a64 hashes canonical key bytes (64-bit FNV-1a). Collisions are
// resolved by column-wise Same verification, never trusted.
func fnv1a64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// appendBatchKey appends the canonical encoding of the idx columns of
// logical row `row` — byte-identical to rel.AppendKey on the row's tuple.
func appendBatchKey(buf []byte, b *rel.Batch, idx []int, row int) []byte {
	for _, x := range idx {
		buf = b.Cols[x].Value(row).EncodeKey(buf)
	}
	return buf
}

// buildHashIdx hashes the idx columns of every row of b into digest
// buckets of row indices, in row order.
func buildHashIdx(b *rel.Batch, idx []int) map[uint64][]int32 {
	n := b.Len()
	ht := make(map[uint64][]int32, n)
	var buf []byte
	for i := 0; i < n; i++ {
		buf = appendBatchKey(buf[:0], b, idx, i)
		h := fnv1a64(buf)
		ht[h] = append(ht[h], int32(i))
	}
	return ht
}

// keysSameIdx verifies an equi-key match column-wise with Same — the
// equality EncodeKey bytes encode.
func keysSameIdx(left, right *rel.Batch, lidx, ridx []int, li, ri int) bool {
	for k := range lidx {
		if !left.Cols[lidx[k]].Value(li).Same(right.Cols[ridx[k]].Value(ri)) {
			return false
		}
	}
	return true
}

func (c *cJoin) run(env Env) (*rel.Batch, error) {
	// Diff-driven short-circuit: evaluate the stored-free side first; an
	// empty diff makes the join free. The result is reused below — that
	// side charges nothing, so charges match the interpreted re-evaluation.
	var left, right *rel.Batch
	var err error
	if c.shortLeft && c.left != nil {
		if left, err = c.left.run(env); err != nil {
			return nil, err
		}
		if left.Len() == 0 {
			return rel.NewBatch(c.sch), nil
		}
	} else if c.shortRight && c.right != nil {
		if right, err = c.right.run(env); err != nil {
			return nil, err
		}
		if right.Len() == 0 {
			return rel.NewBatch(c.sch), nil
		}
	}
	if c.left != nil && left == nil {
		if left, err = c.left.run(env); err != nil {
			return nil, err
		}
	}
	if c.right != nil && right == nil {
		if right, err = c.right.run(env); err != nil {
			return nil, err
		}
	}
	switch c.strategy {
	case joinProbeRight:
		t, err := c.probe.resolve(env)
		if err != nil {
			return nil, err
		}
		return c.probeBatch(t, left, true, opWorkers(env))
	case joinProbeLeft:
		t, err := c.probe.resolve(env)
		if err != nil {
			return nil, err
		}
		return c.probeBatch(t, right, false, opWorkers(env))
	case joinHash:
		return c.hashBatch(left, right, opWorkers(env))
	default: // joinNested
		return c.nestedBatch(left, right), nil
	}
}

// probeBatch drives joinProbeRight/joinProbeLeft from a columnar driving
// side. Per driving row the stored table is probed through exactly the
// LookupInto calls of Eval's probe loop; each match appends the driving
// row's logical index to a gather vector and the probed tuple's values
// to dense builders — driving-side payloads are never copied.
func (c *cJoin) probeBatch(t *storage.Handle, driving *rel.Batch, drivingLeft bool, w int) (*rel.Batch, error) {
	if w > 1 && driving.Len() >= MinOpRows {
		return c.probeBatchParallel(t, driving, drivingLeft, w)
	}
	G, stored, err := c.probeBatchRange(t, driving, drivingLeft, c.probe, 0, driving.Len())
	if err != nil {
		return nil, err
	}
	return c.assembleProbe(driving, drivingLeft, G, stored), nil
}

func (c *cJoin) probeBatchRange(t *storage.Handle, driving *rel.Batch, drivingLeft bool, pr *cProbe, lo, hi int) ([]int32, []rel.ColBuilder, error) {
	idx, storedW := c.lidx, c.rw
	if !drivingLeft {
		idx, storedW = c.ridx, c.lw
	}
	// The match count is unknown until probed (selectivity can be ≪1), so
	// the stored builders size themselves by doubling rather than reserving
	// hi-lo rows up front.
	stored := make([]rel.ColBuilder, storedW)
	G := make([]int32, 0, hi-lo)
	var scratch rel.Tuple
	for i := lo; i < hi; i++ {
		null := false
		for k, x := range idx {
			v := driving.Cols[x].Value(i)
			if v.IsNull() {
				null = true
				break
			}
			pr.valsBuf[k] = v
		}
		if null {
			continue
		}
		rows, err := pr.lookup(t)
		if err != nil {
			return nil, nil, err
		}
		if len(rows) == 0 {
			continue
		}
		if c.residual != nil {
			scratch = driving.Row(i, scratch)
		}
		for _, mt := range rows {
			if c.residual != nil {
				lt, rt := scratch, mt
				if !drivingLeft {
					lt, rt = mt, scratch
				}
				if !c.residual.EvalBool(lt, rt) {
					continue
				}
			}
			G = append(G, int32(i))
			for j := 0; j < storedW; j++ {
				stored[j].Append(mt[j])
			}
		}
	}
	return G, stored, nil
}

// assembleProbe lays out the join output: the driving side gathered by G
// (zero-copy), the stored side as the dense builder payloads.
func (c *cJoin) assembleProbe(driving *rel.Batch, drivingLeft bool, G []int32, stored []rel.ColBuilder) *rel.Batch {
	out := &rel.Batch{Schema: c.sch, Cols: make([]rel.ColVec, c.lw+c.rw), N: len(G)}
	dg := driving.GatherRows(G)
	if drivingLeft {
		copy(out.Cols[:c.lw], dg.Cols)
		for j := range stored {
			out.Cols[c.lw+j] = stored[j].Vec()
		}
	} else {
		for j := range stored {
			out.Cols[j] = stored[j].Vec()
		}
		copy(out.Cols[c.lw:], dg.Cols)
	}
	return out
}

// probeBatchParallel chunks the driving rows; each worker probes with a
// private clone and counter shard, merges happen in chunk order.
func (c *cJoin) probeBatchParallel(t *storage.Handle, driving *rel.Batch, drivingLeft bool, w int) (*rel.Batch, error) {
	spans := chunkSpans(driving.Len(), w)
	type chunkOut struct {
		g      []int32
		stored []rel.ColBuilder
	}
	outs := make([]chunkOut, len(spans))
	shards := make([]rel.CostCounter, len(spans))
	errs := make([]error, len(spans))
	parallelFor(w, len(spans), func(i int) {
		pr := c.probe.clone()
		th := t.WithCounter(&shards[i])
		g, stored, err := c.probeBatchRange(th, driving, drivingLeft, pr, spans[i].lo, spans[i].hi)
		if err != nil {
			errs[i] = err
			return
		}
		outs[i] = chunkOut{g: g, stored: stored}
	})
	for i := range shards {
		t.Merge(shards[i])
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	storedW := c.rw
	if !drivingLeft {
		storedW = c.lw
	}
	var G []int32
	merged := make([]rel.ColBuilder, storedW)
	for _, o := range outs {
		G = append(G, o.g...)
		for j := range merged {
			v := o.stored[j].Vec()
			merged[j].AppendVec(&v, o.stored[j].Len())
		}
	}
	return c.assembleProbe(driving, drivingLeft, G, merged), nil
}

// hashBatch executes joinHash columnarly: digest buckets of row indices
// on the build side, candidates verified with Same, matches emitted as
// (left, right) gather-vector pairs — both outputs zero-copy.
func (c *cJoin) hashBatch(left, right *rel.Batch, w int) (*rel.Batch, error) {
	if w > 1 && left.Len()+right.Len() >= MinOpRows {
		return c.hashBatchParallel(left, right, w)
	}
	ht := buildHashIdx(right, c.ridx)
	gl, gr := c.hashProbeBatchRange(left, right, ht, 0, left.Len())
	return c.assemblePairs(left, right, gl, gr), nil
}

func (c *cJoin) hashProbeBatchRange(left, right *rel.Batch, ht map[uint64][]int32, lo, hi int) ([]int32, []int32) {
	gl := make([]int32, 0, hi-lo)
	gr := make([]int32, 0, hi-lo)
	var buf []byte
	var lbuf, rbuf rel.Tuple
	for i := lo; i < hi; i++ {
		buf = appendBatchKey(buf[:0], left, c.lidx, i)
		cands := ht[fnv1a64(buf)]
		if len(cands) == 0 {
			continue
		}
		if c.residual != nil {
			lbuf = left.Row(i, lbuf)
		}
		for _, ri := range cands {
			if !keysSameIdx(left, right, c.lidx, c.ridx, i, int(ri)) {
				continue
			}
			if c.residual != nil {
				rbuf = right.Row(int(ri), rbuf)
				if !c.residual.EvalBool(lbuf, rbuf) {
					continue
				}
			}
			gl = append(gl, int32(i))
			gr = append(gr, ri)
		}
	}
	return gl, gr
}

// assemblePairs lays out a join of two derived inputs: both sides
// gathered by their match vectors, zero-copy.
func (c *cJoin) assemblePairs(left, right *rel.Batch, gl, gr []int32) *rel.Batch {
	out := &rel.Batch{Schema: c.sch, Cols: make([]rel.ColVec, c.lw+c.rw), N: len(gl)}
	lg := left.GatherRows(gl)
	rg := right.GatherRows(gr)
	copy(out.Cols[:c.lw], lg.Cols)
	copy(out.Cols[c.lw:], rg.Cols)
	return out
}

// hashBatchParallel builds chunk-local digest maps merged in chunk order
// (bucket row indices ascend, reproducing the sequential build order),
// then runs a chunked probe concatenated in chunk order.
func (c *cJoin) hashBatchParallel(left, right *rel.Batch, w int) (*rel.Batch, error) {
	bspans := chunkSpans(right.Len(), w)
	locals := make([]map[uint64][]int32, len(bspans))
	parallelFor(w, len(bspans), func(i int) {
		local := make(map[uint64][]int32, bspans[i].hi-bspans[i].lo)
		var buf []byte
		for r := bspans[i].lo; r < bspans[i].hi; r++ {
			buf = appendBatchKey(buf[:0], right, c.ridx, r)
			h := fnv1a64(buf)
			local[h] = append(local[h], int32(r))
		}
		locals[i] = local
	})
	ht := make(map[uint64][]int32, right.Len())
	for _, local := range locals {
		for h, rows := range local { //ivmlint:allow maprange — bucket contents keep chunk order; digest order is irrelevant
			ht[h] = append(ht[h], rows...)
		}
	}
	pspans := chunkSpans(left.Len(), w)
	type pair struct{ gl, gr []int32 }
	outs := make([]pair, len(pspans))
	parallelFor(w, len(pspans), func(i int) {
		gl, gr := c.hashProbeBatchRange(left, right, ht, pspans[i].lo, pspans[i].hi)
		outs[i] = pair{gl, gr}
	})
	var gl, gr []int32
	for _, o := range outs {
		gl = append(gl, o.gl...)
		gr = append(gr, o.gr...)
	}
	return c.assemblePairs(left, right, gl, gr), nil
}

// nestedBatch executes joinNested: every (left, right) row pair is tested
// against the theta predicate in left-major order, Eval's nested loop.
// Matches are emitted as gather-vector pairs like hashBatch.
func (c *cJoin) nestedBatch(left, right *rel.Batch) *rel.Batch {
	rrows := boxRows(right)
	var gl, gr []int32
	var lbuf rel.Tuple
	for i := 0; i < left.Len(); i++ {
		lbuf = left.Row(i, lbuf)
		for j, rt := range rrows {
			if c.pred.EvalBool(lbuf, rt) {
				gl = append(gl, int32(i))
				gr = append(gr, int32(j))
			}
		}
	}
	return c.assemblePairs(left, right, gl, gr)
}

// boxRows boxes every row of b once, for the pairwise predicate loops of
// the nested strategies.
func boxRows(b *rel.Batch) []rel.Tuple {
	rows := make([]rel.Tuple, b.Len())
	for i := range rows {
		rows[i] = b.Row(i, nil)
	}
	return rows
}

// ---------------------------------------------------------------------------
// Semijoin / antijoin kernels

func (c *cSemi) run(env Env) (*rel.Batch, error) {
	var right *rel.Batch
	var err error
	if c.keysetFirst {
		if right, err = c.right.run(env); err != nil {
			return nil, err
		}
		if right.Len() == 0 {
			return rel.NewBatch(c.sch), nil
		}
	}
	if c.strategy == semiProbeLeft {
		t, err := c.probe.resolve(env)
		if err != nil {
			return nil, err
		}
		return c.probeLeftBatch(t, right)
	}
	left, err := c.left.run(env)
	if err != nil {
		return nil, err
	}
	if left.Len() == 0 {
		return rel.NewBatch(c.sch), nil
	}
	switch c.strategy {
	case semiProbeRight:
		t, err := c.probe.resolve(env)
		if err != nil {
			return nil, err
		}
		if w := opWorkers(env); w > 1 && left.Len() >= MinOpRows {
			return c.probeRightBatchParallel(t, left, w)
		}
		sel, err := c.probeRightBatchRange(t, left, c.probe, 0, left.Len())
		if err != nil {
			return nil, err
		}
		return left.Gather(sel), nil
	}
	if right == nil {
		if right, err = c.right.run(env); err != nil {
			return nil, err
		}
	}
	if c.strategy == semiNested {
		return left.Gather(c.nestedSel(left, right)), nil
	}
	// semiHash
	ht := buildHashIdx(right, c.ridx)
	if w := opWorkers(env); w > 1 && left.Len() >= MinOpRows {
		return left.Gather(c.hashSelBatchParallel(left, right, ht, w)), nil
	}
	return left.Gather(c.hashSelBatchRange(left, right, ht, 0, left.Len())), nil
}

// probeLeftBatch executes semiProbeLeft: the stored left is probed once
// per distinct non-NULL right key, in right-row order, and each matching
// stored row is emitted once, on first match — Eval's probe-left loop,
// with the keys read from the right batch's columns.
func (c *cSemi) probeLeftBatch(t *storage.Handle, right *rel.Batch) (*rel.Batch, error) {
	pr := c.probe
	seenKey := map[string]bool{}
	emitted := map[string]bool{}
	var rows []rel.Tuple
	buf := c.keyBuf
	for i := 0; i < right.Len(); i++ {
		for k, x := range c.ridx {
			pr.valsBuf[k] = right.Cols[x].Value(i)
		}
		if hasNull(pr.valsBuf[:pr.nJoin]) {
			continue
		}
		buf = rel.AppendTupleKey(buf[:0], pr.valsBuf[:pr.nJoin])
		if seenKey[string(buf)] {
			continue
		}
		seenKey[string(buf)] = true
		matches, err := pr.lookup(t)
		if err != nil {
			return nil, err
		}
		for _, lt := range matches {
			buf = rel.AppendTupleKey(buf[:0], lt)
			if !emitted[string(buf)] {
				emitted[string(buf)] = true
				rows = append(rows, lt)
			}
		}
	}
	c.keyBuf = buf
	return rel.FromTuples(c.sch, rows), nil
}

// nestedSel executes semiNested: a left row is kept when some right row
// satisfies the theta predicate (semijoin) or none does (antijoin). It
// returns the kept rows as a selection vector.
func (c *cSemi) nestedSel(left, right *rel.Batch) []int32 {
	rrows := boxRows(right)
	var sel []int32
	var lbuf rel.Tuple
	for i := 0; i < left.Len(); i++ {
		lbuf = left.Row(i, lbuf)
		matched := false
		for _, rt := range rrows {
			if c.pred.EvalBool(lbuf, rt) {
				matched = true
				break
			}
		}
		if matched == c.keep {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

// probeRightBatchRange decides keep/drop per left row by probing the
// stored right — identical Handle calls to Eval's probe loop — and returns
// the kept rows as a selection vector.
func (c *cSemi) probeRightBatchRange(t *storage.Handle, left *rel.Batch, pr *cProbe, lo, hi int) ([]int32, error) {
	sel := make([]int32, 0, hi-lo)
	var scratch rel.Tuple
	for i := lo; i < hi; i++ {
		for k, x := range c.lidx {
			pr.valsBuf[k] = left.Cols[x].Value(i)
		}
		matched := false
		if !hasNull(pr.valsBuf[:pr.nJoin]) {
			rows, err := pr.lookup(t)
			if err != nil {
				return nil, err
			}
			if c.residual == nil {
				matched = len(rows) > 0
			} else {
				scratch = left.Row(i, scratch)
				matched = c.anyMatch(scratch, rows)
			}
		}
		if matched == c.keep {
			sel = append(sel, int32(i))
		}
	}
	return sel, nil
}

func (c *cSemi) probeRightBatchParallel(t *storage.Handle, left *rel.Batch, w int) (*rel.Batch, error) {
	spans := chunkSpans(left.Len(), w)
	sels := make([][]int32, len(spans))
	shards := make([]rel.CostCounter, len(spans))
	errs := make([]error, len(spans))
	parallelFor(w, len(spans), func(i int) {
		pr := c.probe.clone()
		th := t.WithCounter(&shards[i])
		sel, err := c.probeRightBatchRange(th, left, pr, spans[i].lo, spans[i].hi)
		if err != nil {
			errs[i] = err
			return
		}
		sels[i] = sel
	})
	for i := range shards {
		t.Merge(shards[i])
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return left.Gather(concatSel(sels)), nil
}

func (c *cSemi) hashSelBatchRange(left, right *rel.Batch, ht map[uint64][]int32, lo, hi int) []int32 {
	sel := make([]int32, 0, hi-lo)
	var buf []byte
	var lbuf, rbuf rel.Tuple
	for i := lo; i < hi; i++ {
		buf = appendBatchKey(buf[:0], left, c.lidx, i)
		matched := false
		for _, ri := range ht[fnv1a64(buf)] {
			if !keysSameIdx(left, right, c.lidx, c.ridx, i, int(ri)) {
				continue
			}
			if c.residual == nil {
				matched = true
				break
			}
			lbuf = left.Row(i, lbuf)
			rbuf = right.Row(int(ri), rbuf)
			if c.residual.EvalBool(lbuf, rbuf) {
				matched = true
				break
			}
		}
		if matched == c.keep {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

func (c *cSemi) hashSelBatchParallel(left, right *rel.Batch, ht map[uint64][]int32, w int) []int32 {
	spans := chunkSpans(left.Len(), w)
	sels := make([][]int32, len(spans))
	parallelFor(w, len(spans), func(i int) {
		sels[i] = c.hashSelBatchRange(left, right, ht, spans[i].lo, spans[i].hi)
	})
	return concatSel(sels)
}

// concatSel concatenates per-chunk selection vectors in chunk order.
func concatSel(sels [][]int32) []int32 {
	total := 0
	for _, s := range sels {
		total += len(s)
	}
	out := make([]int32, 0, total)
	for _, s := range sels {
		out = append(out, s...)
	}
	return out
}

// ---------------------------------------------------------------------------
// γ kernel

// Aggregate-argument shapes resolved at compile time (cGroupBy.argIdx):
// a non-negative entry is a plain column position.
const (
	argComplex = -1 // general expression; evaluated on a scratch row
	argStar    = -2 // COUNT(*)
)

// bGroup is one aggregation group; firstIdx is the global input index of
// its first row, the merge order of the parallel fold.
type bGroup struct {
	keyVals  rel.Tuple
	states   []aggState
	firstIdx int
}

func (c *cGroupBy) run(env Env) (*rel.Batch, error) {
	child, err := c.child.run(env)
	if err != nil {
		return nil, err
	}
	if w := opWorkers(env); w > 1 && child.Len() >= MinOpRows {
		return c.groupBatchParallel(child, w)
	}
	return c.emitGroups(c.groupBatchRange(child, child.Len(), nil, 0)), nil
}

// groupBatchRange folds rows [0,n) (restricted to one route partition
// when route != nil) into groups in input order. A single uniform-int key
// column uses an int64-keyed map — no key encoding, no string interning
// per group; any other key shape groups by the canonical encoded key,
// exactly Eval's map. Group identity is Same-equality in both
// paths (EncodeKey is injective w.r.t. Same, and a uniform VecInt column
// contains only KindInt values, whose encodings collide with nothing
// else in the column).
func (c *cGroupBy) groupBatchRange(child *rel.Batch, n int, route []uint8, part uint8) []*bGroup {
	var order []*bGroup
	intKey := len(c.keyIdx) == 1 && child.Cols[c.keyIdx[0]].Kind == rel.VecInt
	var byInt map[int64]*bGroup
	var nullGrp *bGroup
	var byKey map[string]*bGroup
	if intKey {
		byInt = make(map[int64]*bGroup)
	} else {
		byKey = make(map[string]*bGroup)
	}
	var buf []byte
	var scratch rel.Tuple
	for i := 0; i < n; i++ {
		if route != nil && route[i] != part {
			continue
		}
		var grp *bGroup
		if intKey {
			kc := &child.Cols[c.keyIdx[0]]
			p := kc.Phys(i)
			if kc.Nulls != nil && kc.Nulls[p] {
				if nullGrp == nil {
					nullGrp = c.newBGroup(child, i)
					order = append(order, nullGrp)
				}
				grp = nullGrp
			} else {
				k := kc.Ints[p]
				g, ok := byInt[k]
				if !ok {
					g = c.newBGroup(child, i)
					byInt[k] = g
					order = append(order, g)
				}
				grp = g
			}
		} else {
			buf = appendBatchKey(buf[:0], child, c.keyIdx, i)
			g, ok := byKey[string(buf)]
			if !ok {
				g = c.newBGroup(child, i)
				byKey[string(buf)] = g
				order = append(order, g)
			}
			grp = g
		}
		for a := range c.fns {
			switch j := c.argIdx[a]; {
			case j == argStar:
				grp.states[a].add(rel.Null(), true)
			case j >= 0:
				grp.states[a].add(child.Cols[j].Value(i), false)
			default:
				scratch = child.Row(i, scratch)
				grp.states[a].add(c.args[a].Eval(scratch), false)
			}
		}
	}
	return order
}

func (c *cGroupBy) newBGroup(child *rel.Batch, i int) *bGroup {
	kv := make(rel.Tuple, len(c.keyIdx))
	for k, x := range c.keyIdx {
		kv[k] = child.Cols[x].Value(i)
	}
	states := make([]aggState, len(c.fns))
	for k, fn := range c.fns {
		states[k] = aggState{fn: fn, sum: rel.Null(), best: rel.Null()}
	}
	return &bGroup{keyVals: kv, states: states, firstIdx: i}
}

// emitGroups lays the groups out columnarly in slice order (first
// appearance for the sequential fold, post-merge order for the parallel
// one).
func (c *cGroupBy) emitGroups(groups []*bGroup) *rel.Batch {
	kw := len(c.keyIdx)
	builders := make([]rel.ColBuilder, kw+len(c.fns))
	for i := range builders {
		builders[i].Grow(len(groups))
	}
	for _, g := range groups {
		for i := 0; i < kw; i++ {
			builders[i].Append(g.keyVals[i])
		}
		for i := range g.states {
			builders[kw+i].Append(g.states[i].result())
		}
	}
	out := &rel.Batch{Schema: c.sch, Cols: make([]rel.ColVec, kw+len(c.fns)), N: len(groups)}
	for i := range builders {
		out.Cols[i] = builders[i].Vec()
	}
	return out
}

// maxGroupParts caps the key-partition count of the parallel γ so routing
// tags fit a byte; more partitions than workers buys nothing anyway.
const maxGroupParts = 64

// groupBatchParallel executes cGroupBy by key-partitioned
// pre-aggregation: rows are routed to key partitions (every group folds
// wholly inside one partition, in input order — which keeps
// non-associative float SUM/AVG byte-identical to the sequential fold),
// partitions fold in parallel, and the merged groups sort by global first
// appearance, the sequential group order.
func (c *cGroupBy) groupBatchParallel(child *rel.Batch, w int) (*rel.Batch, error) {
	np := w
	if np > maxGroupParts {
		np = maxGroupParts
	}
	n := child.Len()
	route := make([]uint8, n)
	spans := chunkSpans(n, w)
	parallelFor(w, len(spans), func(i int) {
		var buf []byte
		for j := spans[i].lo; j < spans[i].hi; j++ {
			buf = appendBatchKey(buf[:0], child, c.keyIdx, j)
			route[j] = uint8(fnv1a64(buf) % uint64(np))
		}
	})
	partGroups := make([][]*bGroup, np)
	parallelFor(w, np, func(p int) {
		partGroups[p] = c.groupBatchRange(child, n, route, uint8(p))
	})
	total := 0
	for _, g := range partGroups {
		total += len(g)
	}
	all := make([]*bGroup, 0, total)
	for _, g := range partGroups {
		all = append(all, g...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].firstIdx < all[j].firstIdx })
	return c.emitGroups(all), nil
}
