package exec_test

import (
	"fmt"
	"testing"

	"mpq/internal/exec"
	"mpq/internal/planner"
	"mpq/internal/tpch"
)

// BenchmarkInterior compares the batch pipeline against the legacy
// materializing evaluator on centralized plaintext TPC-H plans: the
// interior-only speedup, with no distribution, crypto, or link simulation in
// the way.
func BenchmarkInterior(b *testing.B) {
	const sf = 0.01
	cat := tpch.Catalog(sf)
	tables := tpch.Generate(sf, 99)
	pl := planner.New(cat)
	for _, num := range []int{1, 3, 6, 10} {
		var sqlText string
		for _, q := range tpch.Queries() {
			if q.Num == num {
				sqlText = q.SQL
			}
		}
		plan, err := pl.PlanSQL(sqlText)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name string
			mat  bool
		}{{"materializing", true}, {"batch", false}} {
			b.Run(fmt.Sprintf("Q%02d/%s", num, mode.name), func(b *testing.B) {
				e := exec.NewExecutor()
				e.Materializing = mode.mat
				for name, t := range tables {
					e.Tables[name] = t
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := e.RunPlan(plan); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
