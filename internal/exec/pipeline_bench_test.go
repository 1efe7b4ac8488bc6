package exec_test

import (
	"fmt"
	"testing"

	"mpq/internal/exec"
	"mpq/internal/planner"
	"mpq/internal/tpch"
)

// BenchmarkInterior times the batch pipeline on centralized plaintext
// TPC-H plans: the interior alone, with no distribution, crypto, or link
// simulation in the way.
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
		b.Run(fmt.Sprintf("Q%02d", num), func(b *testing.B) {
			e := exec.NewExecutor()
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
