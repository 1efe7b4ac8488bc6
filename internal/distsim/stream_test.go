package distsim

import (
	"sync"
	"testing"
	"time"

	"mpq/internal/algebra"
	"mpq/internal/core"
	"mpq/internal/exec"
	"mpq/internal/planner"
)

// streamFixture prepares the running-example network and extended plan
// (Figure 7(a) assignment: selection at H, join and group-by at X, HAVING
// at Y) with keys distributed and constants dispatched.
func streamFixture(t *testing.T) (*Network, *core.ExtendedPlan, *exec.Executor, exec.ConstCache) {
	t.Helper()
	cat := exampleCatalog()
	plan, err := planner.New(cat).PlanSQL(runningQuery)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(examplePolicy(), "H", "I", "U", "X", "Y")
	an := sys.Analyze(plan.Root, nil)
	var sel, join, grp, hav algebra.Node
	algebra.PostOrder(plan.Root, func(n algebra.Node) {
		switch x := n.(type) {
		case *algebra.Select:
			if _, isBase := x.Child.(*algebra.Base); isBase {
				sel = n
			} else {
				hav = n
			}
		case *algebra.Join:
			join = n
		case *algebra.GroupBy:
			grp = n
		}
	})
	ext, err := sys.Extend(an, core.Assignment{sel: "H", join: "X", grp: "X", hav: "Y"})
	if err != nil {
		t.Fatal(err)
	}
	nw := NewNetwork()
	nw.AddSubject("H", map[string]*exec.Table{"Hosp": hospTable()})
	nw.AddSubject("I", map[string]*exec.Table{"Ins": insTable()})
	full, err := nw.DistributeKeys(ext, testPaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	consts, err := exec.PrepareConstants(ext.Root, full, exec.KindsFromCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}
	user := exec.NewExecutor()
	user.Keys = full
	return nw, ext, user, consts
}

// TestExecuteStreamMatchesMaterializing: the batch-streaming fragment
// workers compute the same relation as the central row-at-a-time
// reference, and the per-edge ledger entries carry the rows of the shipped
// subtree evaluated centrally, with the batch split recorded.
func TestExecuteStreamMatchesMaterializing(t *testing.T) {
	nw, ext, user, consts := streamFixture(t)
	want, wantEdges := centralRun(t, nw, ext, user.Keys, consts)

	run := nw.Clone()
	run.BatchSize = 3 // force multi-batch exchanges on the 8-row example
	var rows [][]exec.Value
	schema, transfers, err := run.ExecuteStreamCtx(nil, ext, consts, func(b [][]exec.Value) error {
		rows = append(rows, b...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(schema) != len(want.Schema) {
		t.Fatalf("schema width %d, want %d", len(schema), len(want.Schema))
	}
	gotTbl := exec.NewTable(schema)
	gotTbl.Rows = rows
	got, err := user.DecryptTable(gotTbl)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("rows = %d, want %d", got.Len(), want.Len())
	}
	for i := range want.Rows {
		if exec.DisplayString(got.Rows[i]) != exec.DisplayString(want.Rows[i]) {
			t.Errorf("row %d: %s, want %s", i, exec.DisplayString(got.Rows[i]), exec.DisplayString(want.Rows[i]))
		}
	}

	// Ledger: same cross-subject edges with the same totals as the
	// reference, bytes accounted per batch.
	gotEdges := map[string]int{}
	for _, tr := range transfers {
		gotEdges[EdgeKey(tr.From, tr.To)] += tr.Rows
		if tr.Rows > run.BatchSize && tr.Batches < 2 {
			t.Errorf("edge %s→%s shipped %d rows in %d batch(es), expected a split", tr.From, tr.To, tr.Rows, tr.Batches)
		}
	}
	for k, v := range wantEdges {
		if gotEdges[k] != v {
			t.Errorf("edge %s shipped %d rows, want %d", k, gotEdges[k], v)
		}
	}
	if len(gotEdges) != len(wantEdges) {
		t.Errorf("edges = %v, want %v", gotEdges, wantEdges)
	}
}

// TestExecuteStreamEmptyProductDrainsProbe: a cartesian product whose
// build side is empty must still drain its probe side, or the probe
// fragment's producer would block forever on the bounded exchange channel
// (regression test: BatchSize 1 makes the 8-row probe stream exceed the
// channel depth, so an undrained producer deadlocks ExecuteStreamCtx).
func TestExecuteStreamEmptyProductDrainsProbe(t *testing.T) {
	cat := exampleCatalog()
	// The planner pushes the selection onto Ins, leaving an implicit
	// cartesian product with an empty right side.
	plan, err := planner.New(cat).PlanSQL("select S, P from Hosp, Ins where P > 99999")
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(examplePolicy(), "H", "I", "U", "X", "Y")
	an := sys.Analyze(plan.Root, nil)
	lambda := make(core.Assignment)
	algebra.PostOrder(plan.Root, func(n algebra.Node) {
		if _, isBase := n.(*algebra.Base); isBase {
			return
		}
		if _, isSel := n.(*algebra.Select); isSel {
			lambda[n] = "I"
			return
		}
		lambda[n] = "U" // product and projection away from both authorities
	})
	ext, err := sys.Extend(an, lambda)
	if err != nil {
		t.Fatal(err)
	}
	nw := NewNetwork()
	nw.AddSubject("H", map[string]*exec.Table{"Hosp": hospTable()})
	nw.AddSubject("I", map[string]*exec.Table{"Ins": insTable()})
	full, err := nw.DistributeKeys(ext, testPaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	consts, err := exec.PrepareConstants(ext.Root, full, exec.KindsFromCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}

	run := nw.Clone()
	run.BatchSize = 1
	finished := make(chan error, 1)
	var rows [][]exec.Value
	go func() {
		_, _, err := run.ExecuteStreamCtx(nil, ext, consts, func(b [][]exec.Value) error {
			rows = append(rows, b...)
			return nil
		})
		finished <- err
	}()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ExecuteStreamCtx deadlocked on an empty product build side")
	}
	if len(rows) != 0 {
		t.Fatalf("empty product produced %d rows", len(rows))
	}
}

// TestExecuteStreamConcurrent runs many streaming executions of the same
// prepared network in parallel (exercised under -race in CI): fragment
// workers of distinct runs must never share mutable state.
func TestExecuteStreamConcurrent(t *testing.T) {
	nw, ext, user, consts := streamFixture(t)
	want, _ := centralRun(t, nw, ext, user.Keys, consts)

	const runs = 8
	var wg sync.WaitGroup
	errs := make(chan error, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(batch int) {
			defer wg.Done()
			run := nw.Clone()
			run.BatchSize = batch
			var rows [][]exec.Value
			schema, _, err := run.ExecuteStreamCtx(nil, ext, consts, func(b [][]exec.Value) error {
				rows = append(rows, b...)
				return nil
			})
			if err != nil {
				errs <- err
				return
			}
			tbl := exec.NewTable(schema)
			tbl.Rows = rows
			got, err := user.DecryptTable(tbl)
			if err != nil {
				errs <- err
				return
			}
			if got.Len() != want.Len() {
				errs <- errRowCount{got.Len(), want.Len()}
			}
		}(1 + i%4)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type errRowCount struct{ got, want int }

func (e errRowCount) Error() string {
	return "streamed row count differs from the central reference"
}
