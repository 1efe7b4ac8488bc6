package exec_test

import (
	"errors"
	"strings"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/exec"
	"mpq/internal/planner"
	"mpq/internal/sql"
	"mpq/internal/tpch"
)

// TestMemBudgetReleasesReservations runs TPC-H Q18 (two hash joins under a
// group-by) on one executor holding every table. Under a budget the whole
// working set fits, it answers the SQL reference's rows and returns every
// byte it reserved; under a budget the first build side exceeds, it fails
// with ErrMemoryBudget naming the join and the bytes, and again holds
// nothing afterwards.
func TestMemBudgetReleasesReservations(t *testing.T) {
	const sf = 0.001
	var q18 tpch.Query
	for _, q := range tpch.Queries() {
		if q.Num == 18 {
			q18 = q
		}
	}
	want := tpchAnswers(t)[18]
	plan, err := planner.New(tpch.Catalog(sf)).PlanSQL(q18.SQL)
	if err != nil {
		t.Fatal(err)
	}
	ex := exec.NewExecutor()
	for name, tbl := range tpch.Generate(sf, 99) {
		ex.Tables[name] = tbl
	}

	ex.Mem = exec.NewMemAccountant(1 << 30)
	got, _, err := ex.RunPlan(plan)
	if err != nil {
		t.Fatalf("1 GiB budget: %v", err)
	}
	diffRef(t, "Q18 under a 1 GiB budget", got, want)
	if n := ex.Mem.Used(); n != 0 {
		t.Errorf("answered run still holds %d reserved bytes", n)
	}

	ex.Mem = exec.NewMemAccountant(4 << 10)
	_, _, err = ex.RunPlan(plan)
	if !errors.Is(err, exec.ErrMemoryBudget) {
		t.Fatalf("4 KiB budget: got %v, want ErrMemoryBudget", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "⋈[") || !strings.Contains(msg, "of 4096 reserved") {
		t.Errorf("refusal %q does not name the join and the bytes", msg)
	}
	if n := ex.Mem.Used(); n != 0 {
		t.Errorf("refused run still holds %d reserved bytes", n)
	}
}

// TestMemBudgetRefusesProductBuildSide runs a Cartesian product and a
// non-equi join, whose build sides are retained whole, under a budget
// smaller than the build side: each fails with ErrMemoryBudget naming its
// operator, and holds nothing afterwards. Under an ample budget both answer.
func TestMemBudgetRefusesProductBuildSide(t *testing.T) {
	a, b := algebra.A("R", "a"), algebra.A("S", "b")
	ex := exec.NewExecutor()
	ra, rb := exec.NewTable([]algebra.Attr{a}), exec.NewTable([]algebra.Attr{b})
	for i := int64(0); i < 200; i++ {
		ra.Append([]exec.Value{exec.Int(i)})
		rb.Append([]exec.Value{exec.Int(i)})
	}
	ex.Tables["R"], ex.Tables["S"] = ra, rb
	base := func() (algebra.Node, algebra.Node) {
		return algebra.NewBase("R", "A", []algebra.Attr{a}, 200, nil), algebra.NewBase("S", "B", []algebra.Attr{b}, 200, nil)
	}
	l, r := base()
	prod := algebra.NewProduct(l, r)
	l, r = base()
	lt := algebra.NewJoin(l, r, &algebra.CmpAA{L: a, Op: sql.OpLt, R: b}, 0.5)
	for _, c := range []struct {
		node algebra.Node
		rows int
	}{{prod, 200 * 200}, {lt, 200 * 199 / 2}} {
		ex.Mem = exec.NewMemAccountant(1 << 10)
		_, err := ex.Run(c.node)
		if !errors.Is(err, exec.ErrMemoryBudget) {
			t.Fatalf("%s under 1 KiB: got %v, want ErrMemoryBudget", c.node.Op(), err)
		}
		if msg := err.Error(); !strings.Contains(msg, c.node.Op()+" needs") {
			t.Errorf("refusal %q does not name %s", msg, c.node.Op())
		}
		if n := ex.Mem.Used(); n != 0 {
			t.Errorf("%s: refused run still holds %d reserved bytes", c.node.Op(), n)
		}
		ex.Mem = exec.NewMemAccountant(1 << 20)
		got, err := ex.Run(c.node)
		if err != nil {
			t.Fatalf("%s under 1 MiB: %v", c.node.Op(), err)
		}
		if got.Len() != c.rows {
			t.Errorf("%s: %d rows, want %d", c.node.Op(), got.Len(), c.rows)
		}
		if n := ex.Mem.Used(); n != 0 {
			t.Errorf("%s: answered run still holds %d reserved bytes", c.node.Op(), n)
		}
	}
}

// TestGroupByHoldsReservationUntilClose drains a budgeted group-by window by
// window: its table stays resident while the windows are emitted, so its
// reservation must too, and Close must return all of it.
func TestGroupByHoldsReservationUntilClose(t *testing.T) {
	k, v := algebra.A("R", "k"), algebra.A("R", "v")
	ex := exec.NewExecutor()
	r := exec.NewTable([]algebra.Attr{k, v})
	for i := int64(0); i < 3000; i++ {
		r.Append([]exec.Value{exec.Int(i % 2000), exec.Float(float64(i))})
	}
	ex.Tables["R"] = r
	ex.Mem = exec.NewMemAccountant(1 << 30)
	g := algebra.NewGroupBy(algebra.NewBase("R", "A", r.Schema, 3000, nil), []algebra.Attr{k},
		[]algebra.AggSpec{{Func: sql.AggSum, Attr: v}}, 2000)
	op, err := ex.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	groups := 0
	for {
		b, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if groups += b.N; ex.Mem.Used() <= 0 {
			t.Fatalf("after %d of 2000 groups emitted the group-by holds no reservation", groups)
		}
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	if groups != 2000 {
		t.Errorf("%d groups, want 2000", groups)
	}
	if n := ex.Mem.Used(); n != 0 {
		t.Errorf("closed group-by still holds %d reserved bytes", n)
	}
}
