package assignment_test

import (
	"fmt"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/assignment"
	"mpq/internal/planner"
	"mpq/internal/tpch"
)

// TestOptimizeDeterministic runs Optimize repeatedly on every TPC-H query
// under every scenario: an exact cost tie in the DP must never be broken by
// map iteration order, so every run yields the same assignment of the
// original plan, the same extended plan with the same executors, and the
// same cost.
func TestOptimizeDeterministic(t *testing.T) {
	const runs = 20
	cat := tpch.Catalog(0.01)
	pl := planner.New(cat)
	m := tpch.Model()
	for _, sc := range tpch.Scenarios() {
		sys := tpch.System(cat, sc)
		for _, q := range tpch.Queries() {
			plan, err := pl.PlanSQL(q.SQL)
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			an := sys.Analyze(plan.Root, nil)
			var want string
			for i := 0; i < runs; i++ {
				res, err := assignment.Optimize(sys, an, m, assignment.Options{})
				if err != nil {
					t.Fatalf("%s/%s: %v", sc, q.Name, err)
				}
				got := fmt.Sprintf("cost %v\n", res.Cost.Total())
				algebra.PostOrder(an.Root, func(n algebra.Node) {
					if s, ok := res.Lambda[n]; ok {
						got += fmt.Sprintf("λ(%s) = %s\n", n.Op(), s)
					}
				})
				got += algebra.Format(res.Extended.Root, func(n algebra.Node) string {
					return " @" + string(res.Extended.Assign.Executor(n))
				})
				if i == 0 {
					want = got
				} else if got != want {
					t.Fatalf("%s/%s: run %d differs from run 0:\n%s\nvs\n%s", sc, q.Name, i, got, want)
				}
			}
		}
	}
}
