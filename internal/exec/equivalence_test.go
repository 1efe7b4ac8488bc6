package exec_test

import (
	"fmt"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/crypto"
	"mpq/internal/exec"
	"mpq/internal/planner"
	"mpq/internal/sql"
	"mpq/internal/tpch"
)

// TestPipelineMatchesMaterializingTPCH runs the full 22-query TPC-H
// workload through the batch pipeline and the legacy materializing
// evaluator on the same centralized plaintext tables and diffs the results
// row for row: the streaming interior must be observationally identical,
// including row order (every operator preserves its input order) and
// floating-point accumulation order. A last case joins on one equality
// pair with residual conjuncts over a dict-encoded string column holding
// NULLs and a deterministic-ciphertext column, the shape Q5 and Q9 give
// the hash join.
func TestPipelineMatchesMaterializingTPCH(t *testing.T) {
	const sf = 0.001
	cat := tpch.Catalog(sf)
	tables := tpch.Generate(sf, 99)
	pl := planner.New(cat)

	batch := exec.NewExecutor()
	oracle := exec.NewExecutor()
	oracle.Materializing = true
	for name, tbl := range tables {
		batch.Tables[name] = tbl
		oracle.Tables[name] = tbl
	}

	for _, q := range tpch.Queries() {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			plan, err := pl.PlanSQL(q.SQL)
			if err != nil {
				t.Fatal(err)
			}
			got, gotHdr, err := batch.RunPlan(plan)
			if err != nil {
				t.Fatalf("batch pipeline: %v", err)
			}
			want, wantHdr, err := oracle.RunPlan(plan)
			if err != nil {
				t.Fatalf("materializing oracle: %v", err)
			}
			if len(gotHdr) != len(wantHdr) {
				t.Fatalf("headers differ: %v vs %v", gotHdr, wantHdr)
			}
			diffTables(t, got, want)
		})
	}
	t.Run("residual join", func(t *testing.T) {
		ring, err := crypto.NewSymmetricKeyRing("k")
		if err != nil {
			t.Fatal(err)
		}
		rk, rs, rc := algebra.A("R", "k"), algebra.A("R", "s"), algebra.A("R", "c")
		sk, ss, sc := algebra.A("S", "k"), algebra.A("S", "s"), algebra.A("S", "c")
		// Promote every string column to a dictionary when the columnar
		// cache builds; the row evaluator never sees one.
		defer exec.SetDictPolicy(exec.SetDictPolicy(exec.DictPolicy{MinRows: 1, MaxRatio: 1}))
		// Row i holds k = i mod 4, a string s (NULL where null(i)) and c,
		// the deterministic ciphertext of cOf(i).
		table := func(k, s, c algebra.Attr, n int, null func(int) bool, cOf func(int) int64) *exec.Table {
			tbl := exec.NewTable([]algebra.Attr{k, s, c})
			for i := 0; i < n; i++ {
				sv := exec.String(fmt.Sprintf("s%d", i%2))
				if null(i) {
					sv = exec.Null()
				}
				cv, err := exec.EncryptValue(ring, algebra.SchemeDeterministic, exec.Int(cOf(i)))
				if err != nil {
					t.Fatal(err)
				}
				if err := tbl.Append([]exec.Value{exec.Int(int64(i % 4)), sv, cv}); err != nil {
					t.Fatal(err)
				}
			}
			return tbl
		}
		// R's NULLs sit at c = 4 and S's at c = 5, so a residual that tests
		// c first never compares a NULL; one that tests s first does.
		tables := map[string]*exec.Table{
			"R": table(rk, rs, rc, 40, func(i int) bool { return i%5 == 4 }, func(i int) int64 { return int64(i % 5) }),
			"S": table(sk, ss, sc, 30, func(i int) bool { return i%3 == 0 }, func(i int) int64 {
				if i%3 == 0 {
					return 5
				}
				return int64(i % 4)
			}),
		}
		joinOn := func(residual ...algebra.Pred) algebra.Node {
			return algebra.NewJoin(
				algebra.NewBase("R", "A", []algebra.Attr{rk, rs, rc}, 40, nil),
				algebra.NewBase("S", "B", []algebra.Attr{sk, ss, sc}, 30, nil),
				algebra.And(append([]algebra.Pred{&algebra.CmpAA{L: rk, Op: sql.OpEq, R: sk}}, residual...)...),
				0.01)
		}
		sEq := &algebra.CmpAA{L: rs, Op: sql.OpEq, R: ss}
		cEq := &algebra.CmpAA{L: rc, Op: sql.OpEq, R: sc}
		oracle := exec.NewExecutor()
		oracle.Materializing = true
		oracle.Tables = tables
		pipeline := func(join algebra.Node, size int) (*exec.Table, error) {
			e := exec.NewExecutor()
			e.BatchSize = size
			e.Tables = tables
			op, err := e.Build(join)
			if err != nil {
				return nil, err
			}
			return exec.Drain(op)
		}

		shielded := joinOn(cEq, sEq)
		want, err := oracle.Run(shielded)
		if err != nil {
			t.Fatal(err)
		}
		if want.Len() == 0 {
			t.Fatal("the residual join matches nothing: the case tests no rows")
		}
		exposed := joinOn(sEq, cEq)
		_, wantErr := oracle.Run(exposed)
		if wantErr == nil {
			t.Fatal("the row evaluator compared a NULL without an error")
		}
		for _, size := range []int{2, 1024} {
			got, err := pipeline(shielded, size)
			if err != nil {
				t.Fatalf("batch=%d: %v", size, err)
			}
			cols, err := tables["R"].Columns()
			if err != nil {
				t.Fatal(err)
			}
			if cols[1].Kind != exec.ColDict {
				t.Fatalf("R.s is %v in the columnar cache, want a dictionary", cols[1].Kind)
			}
			diffTables(t, got, want)
			if _, err := pipeline(exposed, size); err == nil || err.Error() != wantErr.Error() {
				t.Errorf("batch=%d: NULL in the residual gave %v, the row evaluator %v", size, err, wantErr)
			}
		}
	})
}

// TestPipelineBatchSizeInvariance proves results do not depend on the batch
// granularity: a batch size of 1 (degenerate row-at-a-time streaming, where
// every columnar vector holds a single cell), a small odd size, and a batch
// size larger than every relation produce identical rows for the full
// 22-query TPC-H workload, all diffed against the row-at-a-time
// materializing oracle.
func TestPipelineBatchSizeInvariance(t *testing.T) {
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

	for _, size := range []int{1, 7, 1 << 20} {
		e := exec.NewExecutor()
		e.BatchSize = size
		for name, tbl := range tables {
			e.Tables[name] = tbl
		}
		for _, q := range qs {
			got, _, err := e.RunPlan(q.plan)
			if err != nil {
				t.Fatalf("batch=%d Q%d: %v", size, q.num, err)
			}
			diffTables(t, got, q.want)
		}
	}
}

// diffTables fails the test unless the two tables hold identical rows in
// identical order.
func diffTables(t *testing.T, got, want *exec.Table) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("row count %d, want %d", got.Len(), want.Len())
	}
	for i := range want.Rows {
		g, w := exec.DisplayString(got.Rows[i]), exec.DisplayString(want.Rows[i])
		if g != w {
			t.Fatalf("row %d differs:\ngot:  %s\nwant: %s", i, g, w)
		}
	}
}
