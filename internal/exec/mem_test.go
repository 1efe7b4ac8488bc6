package exec_test

import (
	"errors"
	"strings"
	"testing"

	"mpq/internal/exec"
	"mpq/internal/planner"
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
