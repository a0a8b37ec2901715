package algebra_test

import (
	"fmt"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/rel"
	"idivm/internal/storage"
)

// mixedKeys drives hash joins with repeats, misses, a NULL, and a kind
// mix (Int + Float with equal numeric value) so the batch key columns
// degrade to VecAny and the Same-based bucket verification is exercised.
func mixedKeys() *rel.Relation {
	sch := rel.NewSchema([]string{"jk"}, nil)
	r := rel.NewRelation(sch)
	for i := 0; i < 2000; i++ {
		switch {
		case i%503 == 0:
			r.Add(rel.Tuple{rel.Null()})
		case i%97 == 0:
			r.Add(rel.Tuple{rel.Float(float64((i * 3) % 3300))}) // Same as the Int key
		default:
			r.Add(rel.Tuple{rel.Int(int64((i * 3) % 3300))})
		}
	}
	return r
}

// batchPlans compiles a plan set covering every batch kernel: typed and
// degraded filter columns, index-probe vs scan stored selects, aliased
// and computed projections, probe/hash joins with residuals, semi/anti
// joins, int-keyed and encoded-key aggregation, and union-all.
func batchPlans() map[string]algebra.Node {
	sch := rel.NewSchema([]string{"k", "grp", "val"}, []string{"k"})
	scan := func() algebra.Node { return algebra.NewScan("big", "", sch) }
	keySch := rel.NewSchema([]string{"jk"}, nil)
	keys := func() algebra.Node { return algebra.NewRelRef("keys", keySch) }

	return map[string]algebra.Node{
		"scan": scan(),
		"filter-int": algebra.NewSelect(scan(),
			expr.Lt(expr.C("big.grp"), expr.IntLit(7))),
		"filter-flip": algebra.NewSelect(scan(), // literal on the left
			expr.Ge(expr.IntLit(7), expr.C("big.grp"))),
		"filter-mixed-col": algebra.NewSelect(scan(), // val holds Int/Float/NULL → VecAny
			expr.Gt(expr.C("big.val"), expr.FloatLit(40))),
		"filter-conj": algebra.NewSelect(scan(),
			expr.And(
				expr.Lt(expr.C("big.grp"), expr.IntLit(11)),
				expr.Ne(expr.C("big.grp"), expr.IntLit(3)),
				expr.Gt(expr.C("big.k"), expr.IntLit(100)))),
		"filter-rest": algebra.NewSelect(scan(), // col-vs-col conjunct lands in rest
			expr.And(
				expr.Lt(expr.C("big.grp"), expr.IntLit(9)),
				expr.Lt(expr.C("big.grp"), expr.C("big.k")))),
		"probe-select": algebra.NewSelect(scan(), // index probe path
			expr.Eq(expr.C("big.k"), expr.IntLit(42))),
		"project": algebra.NewProject(scan(), []algebra.ProjItem{
			{E: expr.C("big.grp"), As: "g"},
			{E: expr.AddE(expr.C("big.k"), expr.IntLit(1)), As: "k1"},
			{E: expr.C("big.val"), As: "v"},
		}),
		"join-probe": algebra.NewJoin(keys(), scan(),
			expr.Eq(expr.C("jk"), expr.C("big.k"))),
		"join-probe-residual": algebra.NewJoin(keys(), scan(),
			expr.And(
				expr.Eq(expr.C("jk"), expr.C("big.k")),
				expr.Lt(expr.C("big.grp"), expr.IntLit(10)))),
		"join-hash": algebra.NewJoin(keys(),
			algebra.NewProject(scan(), []algebra.ProjItem{
				{E: expr.C("big.k"), As: "hk"},
				{E: expr.C("big.val"), As: "hv"},
			}),
			expr.Eq(expr.C("jk"), expr.C("hk"))),
		"join-hash-residual": algebra.NewJoin(keys(),
			algebra.NewProject(scan(), []algebra.ProjItem{
				{E: expr.C("big.k"), As: "hk"},
				{E: expr.C("big.grp"), As: "hg"},
			}),
			expr.And(
				expr.Eq(expr.C("jk"), expr.C("hk")),
				expr.Ne(expr.C("hg"), expr.IntLit(5)))),
		"semi": algebra.NewSemiJoin(scan(), keys(),
			expr.Eq(expr.C("big.k"), expr.C("jk"))),
		"anti": algebra.NewAntiJoin(scan(), keys(),
			expr.Eq(expr.C("big.k"), expr.C("jk"))),
		"semi-derived": algebra.NewSemiJoin(
			algebra.NewProject(scan(), []algebra.ProjItem{
				{E: expr.C("big.k"), As: "dk"},
				{E: expr.C("big.val"), As: "dv"},
			}),
			keys(),
			expr.Eq(expr.C("dk"), expr.C("jk"))),
		"groupby-int": algebra.NewGroupBy(scan(), []string{"big.grp"}, []algebra.Agg{
			{Fn: algebra.AggSum, Arg: expr.C("big.val"), As: "s"},
			{Fn: algebra.AggCount, As: "n"},
			{Fn: algebra.AggAvg, Arg: expr.C("big.val"), As: "a"},
		}),
		"groupby-mixed-key": algebra.NewGroupBy(scan(), []string{"big.val"}, []algebra.Agg{
			{Fn: algebra.AggCount, As: "n"},
			{Fn: algebra.AggMax, Arg: expr.C("big.k"), As: "m"},
		}),
		"groupby-expr-arg": algebra.NewGroupBy(scan(), []string{"big.grp"}, []algebra.Agg{
			{Fn: algebra.AggSum, Arg: expr.MulE(expr.C("big.k"), expr.IntLit(2)), As: "s2"},
		}),
		"union": algebra.NewUnionAll(
			algebra.NewSelect(scan(), expr.Lt(expr.C("big.grp"), expr.IntLit(4))),
			algebra.NewSelect(scan(), expr.Ge(expr.C("big.grp"), expr.IntLit(11))),
			"branch"),
	}
}

// smallKeys is a derived relation of 60 keys (repeats, a NULL, a Float
// Same as an Int) small enough for the nested-loop strategies, whose cost
// is the product of their input sizes.
func smallKeys() *rel.Relation {
	sch := rel.NewSchema([]string{"sk"}, nil)
	r := rel.NewRelation(sch)
	for i := 0; i < 60; i++ {
		switch {
		case i == 17:
			r.Add(rel.Tuple{rel.Null()})
		case i%11 == 0:
			r.Add(rel.Tuple{rel.Float(float64(i * 37 % 3100))})
		default:
			r.Add(rel.Tuple{rel.Int(int64(i * 37 % 3100))})
		}
	}
	return r
}

// workerModes are the execution modes every compiled run is checked in:
// sequential kernels and four op-workers.
var workerModes = []struct {
	name string
	w    int
}{{"seq", 1}, {"op4", 4}}

// matchesInterpreted runs plan interpreted (the oracle) and compiled in
// every worker mode against base, requiring identical rows in identical
// order and byte-identical access counters.
func matchesInterpreted(t *testing.T, d *db.Database, base algebra.Env, name string, plan algebra.Node) {
	t.Helper()
	compiled, err := algebra.Compile(plan)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	d.Counter().Reset()
	ref, err := algebra.Eval(plan, base)
	if err != nil {
		t.Fatalf("interpreted run: %v", err)
	}
	refCost := *d.Counter()
	for _, m := range workerModes {
		d.Counter().Reset()
		got, err := compiled.Run(&opEnv{Env: base, w: m.w})
		if err != nil {
			t.Fatalf("%s run: %v", m.name, err)
		}
		if cost := *d.Counter(); cost != refCost {
			t.Fatalf("%s: counters differ: interpreted %v, compiled %v", m.name, refCost, cost)
		}
		sameOrderedRelation(t, name+"/"+m.name, ref, got)
	}
}

// TestBatchMatchesTupleMode runs every plan through the tuple-at-a-time
// interpreted evaluator (the oracle) and through the compiled columnar
// kernels, sequentially and with op-workers, on mem and sharded backends:
// rows must match in exact order and the access counters must be
// byte-identical — batching is invisible to the cost model.
func TestBatchMatchesTupleMode(t *testing.T) {
	plans := batchPlans()
	engines := map[string]func() storage.Engine{
		"mem":      storage.NewMem,
		"sharded8": func() storage.Engine { return storage.NewSharded(8) },
	}
	for engName, mk := range engines {
		t.Run(engName, func(t *testing.T) {
			d := bigDB(t, mk())
			base := &bindEnv{Database: d, rels: map[string]*rel.Relation{"keys": mixedKeys()}}
			for name, plan := range plans {
				t.Run(name, func(t *testing.T) {
					matchesInterpreted(t, d, base, name, plan)
				})
			}
		})
	}
}

// TestPortedStrategiesMatchInterpreted covers the three strategies whose
// kernels need a row view of their inputs: the nested-loop theta join,
// the probe-left semijoin (distinct right keys probe the stored left,
// each stored row emitted once) and the nested-loop semi/antijoin. Each
// plan's root compiles to the strategy its name starts with (the shapes
// are pinned by TestPortedStrategiesPinned) and must reproduce the
// interpreted rows, row order and access counters on mem and sharded:8,
// sequentially and with op-workers.
func TestPortedStrategiesMatchInterpreted(t *testing.T) {
	sch := rel.NewSchema([]string{"k", "grp", "val"}, []string{"k"})
	scan := func() algebra.Node { return algebra.NewScan("big", "", sch) }
	keySch := rel.NewSchema([]string{"jk"}, nil)
	keys := func() algebra.Node { return algebra.NewRelRef("keys", keySch) }
	small := func() algebra.Node { return algebra.NewRelRef("small", rel.NewSchema([]string{"sk"}, nil)) }
	band := func() expr.Expr { // big.k in [sk, sk+3): a non-equi band
		return expr.And(
			expr.Ge(expr.C("big.k"), expr.C("sk")),
			expr.Lt(expr.C("big.k"), expr.AddE(expr.C("sk"), expr.IntLit(3))))
	}
	plans := []struct {
		name string
		plan algebra.Node
	}{
		{"join-nested", algebra.NewJoin(small(), scan(), band())},
		{"join-nested-stored-left", algebra.NewJoin(scan(), small(), band())},
		{"join-nested-filtered-right", algebra.NewJoin(small(),
			algebra.NewSelect(scan(), expr.Lt(expr.C("big.grp"), expr.IntLit(2))),
			expr.Gt(expr.C("sk"), expr.MulE(expr.C("big.k"), expr.IntLit(20))))},
		{"semi-probe-left", algebra.NewSemiJoin(scan(), keys(),
			expr.Eq(expr.C("big.k"), expr.C("jk")))},
		{"semi-probe-left-residual", algebra.NewSemiJoin(
			algebra.NewSelect(scan(), expr.And(
				expr.Eq(expr.C("big.grp"), expr.IntLit(4)),
				expr.Gt(expr.C("big.val"), expr.IntLit(20)))),
			keys(), expr.Eq(expr.C("big.k"), expr.C("jk")))},
		{"semi-probe-left-dup-keys", algebra.NewSemiJoin(scan(),
			algebra.NewUnionAll(keys(), keys(), "b"), // every key twice
			expr.Eq(expr.C("big.k"), expr.C("jk")))},
		{"semi-nested", algebra.NewSemiJoin(scan(), small(), band())},
		{"anti-nested", algebra.NewAntiJoin(scan(), small(), band())},
		{"anti-nested-stored-right", algebra.NewAntiJoin(small(), scan(),
			expr.Lt(expr.MulE(expr.C("sk"), expr.IntLit(2)), expr.C("big.grp")))},
	}
	engines := map[string]func() storage.Engine{
		"mem":      storage.NewMem,
		"sharded8": func() storage.Engine { return storage.NewSharded(8) },
	}
	for engName, mk := range engines {
		t.Run(engName, func(t *testing.T) {
			d := bigDB(t, mk())
			base := &bindEnv{Database: d, rels: map[string]*rel.Relation{
				"keys": mixedKeys(), "small": smallKeys()}}
			for _, p := range plans {
				t.Run(p.name, func(t *testing.T) {
					matchesInterpreted(t, d, base, p.name, p.plan)
				})
			}
		})
	}
}

// TestBatchReuseAcrossRuns re-runs one compiled plan built from the
// scratch-holding strategies (probe-left semijoin key buffer, probe
// clones, nested loops) with interleaved worker counts: compiled plans
// are shared state, so scratch leaking between runs or workers shows up
// as drift from the interpreted result (and as a data race under -race).
func TestBatchReuseAcrossRuns(t *testing.T) {
	sch := rel.NewSchema([]string{"k", "grp", "val"}, []string{"k"})
	semi := algebra.NewSemiJoin(algebra.NewScan("big", "", sch),
		algebra.NewRelRef("keys", rel.NewSchema([]string{"jk"}, nil)),
		expr.Eq(expr.C("big.k"), expr.C("jk")))
	plan := algebra.NewGroupBy(
		algebra.NewJoin(algebra.NewRelRef("small", rel.NewSchema([]string{"sk"}, nil)), semi,
			expr.Lt(expr.C("big.k"), expr.C("sk"))),
		[]string{"big.grp"},
		[]algebra.Agg{{Fn: algebra.AggSum, Arg: expr.C("big.val"), As: "s"}})
	compiled, err := algebra.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	d := bigDB(t, storage.NewSharded(4))
	base := &bindEnv{Database: d, rels: map[string]*rel.Relation{"keys": mixedKeys(), "small": smallKeys()}}
	ref, err := algebra.Eval(plan, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4, 1, 8, 4, 1} {
		got, err := compiled.Run(&opEnv{Env: base, w: w})
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		sameOrderedRelation(t, fmt.Sprintf("w=%d", w), ref, got)
	}
}
