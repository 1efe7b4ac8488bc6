package exec_test

import (
	"fmt"
	"testing"

	"mpq/internal/exec"
	"mpq/internal/planner"
	"mpq/internal/tpch"
)

// TestDictForcedMatchesOracleTPCH runs the 22-query TPC-H workload with
// dictionary promotion forced onto every string column — predicates resolve
// constants against dictionaries, group-by and join keys ride on codes, and
// projections forward codes zero-copy — and checks every answer against the
// SQL reference (internal/sqlref). The dict-off pass must return the
// dict-on rows in the same order: the policy switch itself changes nothing.
func TestDictForcedMatchesOracleTPCH(t *testing.T) {
	const sf = 0.001
	cat := tpch.Catalog(sf)
	tables := tpch.Generate(sf, 99)
	want := tpchAnswers(t)
	pl := planner.New(cat)

	dictOn := make(map[int]*exec.Table)
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
		for _, q := range tpch.Queries() {
			plan, err := pl.PlanSQL(q.SQL)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := e.RunPlan(plan)
			if err != nil {
				t.Fatalf("%s Q%d: %v", pol.name, q.Num, err)
			}
			diffRef(t, fmt.Sprintf("%s Q%d", pol.name, q.Num), got, want[q.Num])
			if on := dictOn[q.Num]; on != nil {
				diffTables(t, got, on)
			} else {
				dictOn[q.Num] = got
			}
		}
		exec.SetDictPolicy(old)
	}
}
