package idivm_test

import (
	"fmt"
	"testing"

	"idivm"
)

// Deferred semantics through the public API: the view is stale until
// Maintain runs.
func TestFacadeDeferredStaleness(t *testing.T) {
	d := openRunningExample(t)
	d.MustCreateView(`CREATE VIEW v AS
		SELECT did, pid, price
		FROM parts NATURAL JOIN devices_parts NATURAL JOIN devices
		WHERE category = 'phone'`)

	if _, err := d.Update("parts", []any{"P1"}, map[string]any{"price": 11}); err != nil {
		t.Fatal(err)
	}
	rows, _ := d.View("v")
	for _, r := range rows.Data {
		if r[1] == "P1" && r[2] == int64(11) {
			t.Fatal("view must stay stale before Maintain")
		}
	}
	if _, err := d.Maintain(); err != nil {
		t.Fatal(err)
	}
	rows, _ = d.View("v")
	seen := false
	for _, r := range rows.Data {
		if r[1] == "P1" && r[2] == int64(11) {
			seen = true
		}
	}
	if !seen {
		t.Fatal("view must reflect the update after Maintain")
	}
}

// Several views over one database maintained by a single call, with one
// consuming JOIN … ON syntax and an alias self-join.
func TestFacadeMultiViewAndJoinOn(t *testing.T) {
	d := openRunningExample(t)
	d.MustCreateView(`CREATE VIEW lines AS
		SELECT dp.did, p.pid, p.price
		FROM parts p JOIN devices_parts dp ON p.pid = dp.pid`)
	d.MustCreateView(`CREATE VIEW price_pairs AS
		SELECT a.pid, b.pid AS other
		FROM parts a, parts b
		WHERE a.price = b.price AND a.pid <> b.pid`)

	if _, err := d.Update("parts", []any{"P2"}, map[string]any{"price": 10}); err != nil {
		t.Fatal(err)
	}
	stats, err := d.Maintain()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("stats = %d views", len(stats))
	}
	for _, v := range []string{"lines", "price_pairs"} {
		if err := d.CheckConsistent(v); err != nil {
			t.Fatal(err)
		}
	}
	pairs, _ := d.View("price_pairs")
	if pairs.Len() != 2 {
		t.Fatalf("equal-price pairs = %d, want 2", pairs.Len())
	}
}

func TestFacadeHavingView(t *testing.T) {
	d := openRunningExample(t)
	d.MustCreateView(`CREATE VIEW pricey AS
		SELECT did, SUM(price) AS cost
		FROM parts NATURAL JOIN devices_parts
		GROUP BY did
		HAVING cost >= 30`)
	rows, _ := d.View("pricey")
	if rows.Len() != 1 {
		t.Fatalf("initial pricey = %d, want 1 (D1 at 30)", rows.Len())
	}
	if _, err := d.Update("parts", []any{"P1"}, map[string]any{"price": 30}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Maintain(); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckConsistent("pricey"); err != nil {
		t.Fatal(err)
	}
	rows, _ = d.View("pricey")
	if rows.Len() != 2 { // D1 at 50, D2 at 30
		t.Fatalf("pricey after raise = %d, want 2", rows.Len())
	}
}

func TestFacadeUnwrapAndRows(t *testing.T) {
	d := openRunningExample(t)
	dbx, sys := d.Unwrap()
	if dbx == nil || sys == nil {
		t.Fatal("Unwrap returned nils")
	}
	rows, err := d.Query(`SELECT pid, price FROM parts`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 || len(rows.Columns) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	// Value conversion round-trip covers nil/bool/float.
	d.MustCreateTable("misc", idivm.Columns("k", "f", "b", "n"), "k")
	d.MustInsert("misc", 1, 2.5, true, nil)
	got, err := d.Query(`SELECT k, f, b, n FROM misc`)
	if err != nil {
		t.Fatal(err)
	}
	r := got.Data[0]
	if r[0] != int64(1) || r[1] != 2.5 || r[2] != true || r[3] != nil {
		t.Fatalf("round-trip = %v", r)
	}
}

func TestFacadeDuplicateView(t *testing.T) {
	d := openRunningExample(t)
	d.MustCreateView(`CREATE VIEW v AS SELECT pid, price FROM parts`)
	if err := d.CreateView(`CREATE VIEW v AS SELECT pid, price FROM parts`); err == nil {
		t.Fatal("duplicate view must error")
	}
	if err := d.CreateView(`CREATE VIEW broken AS SELECT nosuch FROM parts`); err == nil {
		t.Fatal("bad column must error")
	}
}

// TestBadSQLReturnsErrors sends malformed view SQL through every entry
// point that parses SQL — CreateView, Query and QuerySnapshot, with and
// without the serving layer — and requires an error, never a panic.
func TestBadSQLReturnsErrors(t *testing.T) {
	bad := []struct{ name, sql string }{
		{"repeated-column", "SELECT a, a FROM t"},
		{"repeated-alias", "SELECT a AS x, b AS x FROM t"},
		{"repeated-aggregate-alias", "SELECT a, SUM(b) AS s, COUNT(*) AS s FROM t GROUP BY a"},
		{"unaliased-self-join", "SELECT t.a FROM t JOIN t ON t.a = t.b"},
		{"having-unknown-column", "SELECT a, COUNT(*) AS n FROM t GROUP BY a HAVING zz > 1"},
	}
	for _, serving := range []bool{false, true} {
		var opts []idivm.Option
		if serving {
			opts = append(opts, idivm.WithServing(idivm.ServingOptions{}))
		}
		d := idivm.Open(opts...)
		if err := d.CreateTable("t", []string{"a", "b"}, "a"); err != nil {
			t.Fatal(err)
		}
		if err := d.Insert("t", 1, 2); err != nil {
			t.Fatal(err)
		}
		for _, c := range bad {
			t.Run(fmt.Sprintf("serving=%v/%s", serving, c.name), func(t *testing.T) {
				if err := d.CreateView(c.sql, idivm.WithName("v")); err == nil {
					t.Error("CreateView accepted it")
				}
				if _, err := d.Query(c.sql); err == nil {
					t.Error("Query accepted it")
				}
				if _, err := d.QuerySnapshot(c.sql); err == nil {
					t.Error("QuerySnapshot accepted it")
				}
			})
		}
		d.Close()
	}
}
