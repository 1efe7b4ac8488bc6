package dispatch

import (
	"testing"

	"mpq/internal/assignment"
	"mpq/internal/core"
	"mpq/internal/planner"
	"mpq/internal/tpch"
)

// BenchmarkPartition partitions the 66 TPC-H cells (22 queries × UA,
// UAPenc, UAPmix) at sf 0.001, the way every query run does, and reports
// the allocations per plan. Partition renders no sub-query text, so the
// figure is the fragment tree alone.
func BenchmarkPartition(b *testing.B) {
	cat := tpch.Catalog(0.001)
	pl := planner.New(cat)
	var exts []*core.ExtendedPlan
	for _, sc := range tpch.Scenarios() {
		sys := tpch.System(cat, sc)
		for _, q := range tpch.Queries() {
			plan, err := pl.PlanSQL(q.SQL)
			if err != nil {
				b.Fatal(err)
			}
			res, err := assignment.Optimize(sys, sys.Analyze(plan.Root, nil), tpch.Model(), assignment.Options{})
			if err != nil {
				b.Fatalf("%s Q%d: %v", sc, q.Num, err)
			}
			exts = append(exts, res.Extended)
		}
	}
	pass := func() {
		for _, ext := range exts {
			Partition(ext)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.StopTimer()
	b.ReportMetric(testing.AllocsPerRun(10, pass)/float64(len(exts)), "allocs/plan")
}
