package assignment_test

import (
	"testing"

	"mpq/internal/assignment"
	"mpq/internal/planner"
	"mpq/internal/tpch"
)

// BenchmarkMissPath prices what a plan-cache miss costs before execution:
// one op plans, analyzes and optimizes the 22 TPC-H queries under UAPmix at
// sf 0.001 (PlanSQL + Analyze + Optimize per query). Run with -benchmem; CI
// bounds its allocs/op.
func BenchmarkMissPath(b *testing.B) {
	cat := tpch.Catalog(0.001)
	pl := planner.New(cat)
	sys := tpch.System(cat, tpch.UAPmix)
	m := tpch.Model()
	queries := tpch.Queries()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			plan, err := pl.PlanSQL(q.SQL)
			if err != nil {
				b.Fatalf("%s: %v", q.Name, err)
			}
			an := sys.Analyze(plan.Root, nil)
			if _, err := assignment.Optimize(sys, an, m, assignment.Options{}); err != nil {
				b.Fatalf("%s: %v", q.Name, err)
			}
		}
	}
}
