package exec_test

import (
	"fmt"
	"math/rand"
	"testing"

	"mpq/internal/exec"
	"mpq/internal/planner"
	"mpq/internal/tpch"
)

// BenchmarkColumnarOps isolates the operators the columnar layout targets —
// selective filters and grouped aggregation — on TPC-H-shaped plans.
// BenchmarkInterior covers the full query mix; this benchmark is the
// per-operator microscope (filter: Q6's conjunctive range scan;
// aggregate: Q1's wide grouped aggregation; filter-aggregate: Q14's
// join-free shape via Q6 with the revenue aggregate).
func BenchmarkColumnarOps(b *testing.B) {
	const sf = 0.01
	cat := tpch.Catalog(sf)
	tables := tpch.Generate(sf, 99)
	pl := planner.New(cat)

	shapes := []struct {
		name string
		sql  string
	}{
		{"filter", "SELECT l_orderkey FROM lineitem WHERE l_shipdate >= 19940101 AND l_shipdate < 19950101 AND l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24"},
		{"aggregate", "SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), avg(l_discount), count(*) FROM lineitem GROUP BY l_returnflag, l_linestatus"},
		{"filter-aggregate", "SELECT sum(l_extendedprice) FROM lineitem WHERE l_shipdate >= 19940101 AND l_shipdate < 19950101 AND l_discount >= 0.05 AND l_discount <= 0.07"},
	}
	for _, sh := range shapes {
		plan, err := pl.PlanSQL(sh.sql)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sh.name, func(b *testing.B) {
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

// BenchmarkColumnarize measures the scan-side conversion tax: transposing
// row-major table windows into typed column vectors, and materializing them
// back to rows at the boundary.
func BenchmarkColumnarize(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const n = 4096
	rows := make([][]exec.Value, n)
	for i := range rows {
		rows[i] = []exec.Value{
			exec.Int(rng.Int63()),
			exec.Float(rng.Float64()),
			exec.String(fmt.Sprintf("cust%04d", rng.Intn(1000))),
			exec.Int(rng.Int63n(100)),
		}
	}
	b.Run("rows-to-batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exec.NewBatchFromRows(rows, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	batch, err := exec.NewBatchFromRows(rows, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("batch-to-rows", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = batch.Rows()
		}
	})
}
