package exec_test

import (
	"testing"

	"mpq/internal/exec"
	"mpq/internal/planner"
	"mpq/internal/tpch"
)

// TestDictForcedMatchesOracleTPCH runs the 22-query TPC-H workload with
// dictionary promotion forced onto every string column — predicates resolve
// constants against dictionaries, group-by and join keys ride on codes, and
// projections forward codes zero-copy — and diffs every result row for row
// against the row-at-a-time materializing oracle (which never sees a dict
// column). The dict-off pass proves the policy switch itself changes
// nothing.
func TestDictForcedMatchesOracleTPCH(t *testing.T) {
	const sf = 0.001
	cat := tpch.Catalog(sf)
	tables := tpch.Generate(sf, 99)
	pl := planner.New(cat)

	oracle := exec.NewExecutor()
	oracle.Materializing = true
	for name, tbl := range tables {
		oracle.Tables[name] = tbl
	}
	type planned struct {
		num  int
		plan *planner.Plan
		want *exec.Table
	}
	var qs []planned
	for _, q := range tpch.Queries() {
		plan, err := pl.PlanSQL(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := oracle.RunPlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, planned{num: q.Num, plan: plan, want: want})
	}

	for _, pol := range []struct {
		name   string
		policy exec.DictPolicy
	}{
		{"dict-on", exec.DictPolicy{MinRows: 1, MaxRatio: 1}},
		{"dict-off", exec.DictPolicy{MinRows: 1, MaxRatio: 0}},
	} {
		old := exec.SetDictPolicy(pol.policy)
		e := exec.NewExecutor()
		for name, tbl := range tables {
			// Fresh tables per policy: the columnar cache snapshots under
			// the policy active at build time.
			e.Tables[name] = tbl
			tbl.InvalidateColumns()
		}
		for _, q := range qs {
			got, _, err := e.RunPlan(q.plan)
			if err != nil {
				t.Fatalf("%s Q%d: %v", pol.name, q.num, err)
			}
			if got.Len() != q.want.Len() {
				t.Fatalf("%s Q%d: %d rows, want %d", pol.name, q.num, got.Len(), q.want.Len())
			}
			for i := range q.want.Rows {
				g, w := exec.DisplayString(got.Rows[i]), exec.DisplayString(q.want.Rows[i])
				if g != w {
					t.Fatalf("%s Q%d row %d differs:\ngot:  %s\nwant: %s", pol.name, q.num, i, g, w)
				}
			}
		}
		exec.SetDictPolicy(old)
	}
}
