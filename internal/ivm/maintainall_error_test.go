package ivm

import (
	"fmt"
	"testing"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/rel"
)

// registerSumView registers a per-group SUM view over src (a base table
// or a prior view), projected to bare output names so further views can
// stack on it. White-box so tests can reach into s.views afterwards.
func registerSumView(t *testing.T, s *System, name, src, grpCol, valCol string) *View {
	t.Helper()
	tab, err := s.DB.Table(src)
	if err != nil {
		t.Fatalf("table %q: %v", src, err)
	}
	g := algebra.NewGroupBy(algebra.NewScan(src, "", tab.Schema()),
		[]string{src + "." + grpCol},
		[]algebra.Agg{{Fn: algebra.AggSum, Arg: expr.C(src + "." + valCol), As: "total"}})
	plan := algebra.NewProject(g, []algebra.ProjItem{
		{E: expr.C(src + "." + grpCol), As: "grp"},
		{E: expr.C("total"), As: "total"},
	})
	v, err := s.RegisterView(name, plan, ModeID)
	if err != nil {
		t.Fatalf("register %q: %v", name, err)
	}
	return v
}

// sabotageView appends a compute step referencing a binding nothing
// produces, so the view's next maintenance run fails mid-script.
func sabotageView(t *testing.T, s *System, name string) {
	t.Helper()
	v, ok := s.views[name]
	if !ok {
		t.Fatalf("unknown view %q", name)
	}
	v.Script.Steps = append(v.Script.Steps, &ComputeStep{
		Name: "boom",
		Plan: algebra.NewRelRef("unbound-boom", rel.NewSchema([]string{"k"}, []string{"k"})),
		Ph:   PhaseViewCompute,
	})
}

// TestMaintainAllSurfacesLateRegisteredLowerLevelError pins the failure
// contract when registration order and level order disagree: "B" (level
// 1) registers before "C" (level 0), and C's maintenance fails.
// MaintainAll must return C's error, keep the base log for retry, and
// drop the derived logs the successfully-maintained parent "A" produced
// before the round collapsed (a kept derived log would feed B duplicates
// on the retried round). The contract holds with and without
// intra-operator parallelism (OpWorkers).
func TestMaintainAllSurfacesLateRegisteredLowerLevelError(t *testing.T) {
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			d := db.New()
			item := d.MustCreateTable("item", rel.NewSchema([]string{"id", "grp", "val"}, []string{"id"}))
			for i := 0; i < 8; i++ {
				item.MustInsert(rel.Int(int64(i)),
					rel.String(fmt.Sprintf("g%d", i%2)), rel.Int(int64(i)))
			}
			s := NewSystem(d)
			registerSumView(t, s, "A", "item", "grp", "val")
			registerSumView(t, s, "B", "A", "grp", "total")  // level 1, registered before C
			registerSumView(t, s, "C", "item", "grp", "val") // level 0, registered last
			sabotageView(t, s, "C")

			if err := d.Insert("item", rel.Tuple{rel.Int(100), rel.String("g0"), rel.Int(7)}); err != nil {
				t.Fatalf("insert: %v", err)
			}
			s.OpWorkers = workers
			if _, err := s.MaintainAll(); err == nil {
				t.Fatal("MaintainAll swallowed the failing view's error")
			}
			if len(d.Log()) == 0 {
				t.Fatal("failed round must keep the base log for retry")
			}
			for _, name := range s.ViewNames() {
				if mods := d.DerivedLog(name); len(mods) != 0 {
					t.Fatalf("failed round left %d derived-log entries on %q", len(mods), name)
				}
			}
		})
	}
}
