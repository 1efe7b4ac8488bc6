package tpch

import (
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/exec"
	"mpq/internal/planner"
)

func TestCatalogComplete(t *testing.T) {
	cat := Catalog(1)
	if got := len(cat.Names()); got != 8 {
		t.Fatalf("relations = %d, want 8", got)
	}
	li := cat.Relation("lineitem")
	if li == nil || li.Rows != 6000000 {
		t.Errorf("lineitem rows = %v", li)
	}
	if li.Authority != AuthorityCO {
		t.Errorf("lineitem authority = %s", li.Authority)
	}
	if cat.Relation("partsupp").Authority != AuthorityPS {
		t.Errorf("partsupp authority wrong")
	}
	// Authorities split the tables: both sides non-empty.
	co, ps := 0, 0
	for _, n := range cat.Names() {
		switch cat.Relation(n).Authority {
		case AuthorityCO:
			co++
		case AuthorityPS:
			ps++
		}
	}
	if co == 0 || ps == 0 || co+ps != 8 {
		t.Errorf("authority split = %d/%d", co, ps)
	}
}

func TestGeneratorDeterministicAndScaled(t *testing.T) {
	a := Generate(0.001, 42)
	b := Generate(0.001, 42)
	for name, ta := range a {
		tb := b[name]
		if ta.Len() != tb.Len() {
			t.Errorf("%s: nondeterministic row count %d vs %d", name, ta.Len(), tb.Len())
		}
	}
	if got := a["region"].Len(); got != 5 {
		t.Errorf("region rows = %d", got)
	}
	if got := a["nation"].Len(); got != 25 {
		t.Errorf("nation rows = %d", got)
	}
	if got := a["supplier"].Len(); got != 10 {
		t.Errorf("supplier rows = %d, want 10", got)
	}
	if got := a["customer"].Len(); got != 150 {
		t.Errorf("customer rows = %d, want 150", got)
	}
	// lineitem ≈ 4× orders.
	or, li := a["orders"].Len(), a["lineitem"].Len()
	if or != 1500 {
		t.Errorf("orders rows = %d", or)
	}
	if li < 2*or || li > 7*or {
		t.Errorf("lineitem/orders ratio = %d/%d", li, or)
	}
	// Different seed changes the data.
	c := Generate(0.001, 43)
	if c["lineitem"].Len() == li {
		rowA := a["lineitem"].Rows[0]
		rowC := c["lineitem"].Rows[0]
		same := true
		for i := range rowA {
			if rowA[i].String() != rowC[i].String() {
				same = false
			}
		}
		if same {
			t.Errorf("seed does not change the data")
		}
	}
}

func TestGeneratedDataMatchesCatalogSchema(t *testing.T) {
	cat := Catalog(0.001)
	tables := Generate(0.001, 1)
	for _, name := range TableNames() {
		rel := cat.Relation(name)
		tbl := tables[name]
		if tbl == nil {
			t.Fatalf("missing table %s", name)
		}
		if len(tbl.Schema) != len(rel.Columns) {
			t.Fatalf("%s: schema width %d vs catalog %d", name, len(tbl.Schema), len(rel.Columns))
		}
		for i, col := range rel.Columns {
			if tbl.Schema[i].Name != col.Name || tbl.Schema[i].Rel != name {
				t.Errorf("%s column %d = %v, want %s", name, i, tbl.Schema[i], col.Name)
			}
		}
		// Value kinds match column types on the first row.
		if tbl.Len() > 0 {
			for i, col := range rel.Columns {
				v := tbl.Rows[0][i]
				switch col.Type {
				case algebra.TInt, algebra.TDate:
					if v.Kind != exec.KInt {
						t.Errorf("%s.%s kind = %d, want int", name, col.Name, v.Kind)
					}
				case algebra.TFloat:
					if v.Kind != exec.KFloat {
						t.Errorf("%s.%s kind = %d, want float", name, col.Name, v.Kind)
					}
				case algebra.TString:
					if v.Kind != exec.KString {
						t.Errorf("%s.%s kind = %d, want string", name, col.Name, v.Kind)
					}
				}
			}
		}
	}
}

func TestDerivedColumns(t *testing.T) {
	tables := Generate(0.001, 7)
	li := tables["lineitem"]
	price := li.ColIndex(algebra.A("lineitem", "l_extendedprice"))
	disc := li.ColIndex(algebra.A("lineitem", "l_discount"))
	rev := li.ColIndex(algebra.A("lineitem", "l_revenue"))
	for _, row := range li.Rows[:50] {
		want := row[price].F * (1 - row[disc].F)
		got := row[rev].F
		if got < want-0.011 || got > want+0.011 {
			t.Fatalf("l_revenue = %v, want ≈ %v", got, want)
		}
	}
}

// TestAllQueriesPlanAndAnalyze plans every workload query against the SF-1
// catalog and checks that each is feasible under every scenario.
func TestAllQueriesPlanAndAnalyze(t *testing.T) {
	cat := Catalog(1)
	pl := planner.New(cat)
	for _, sc := range Scenarios() {
		sys := System(cat, sc)
		for _, q := range Queries() {
			plan, err := pl.PlanSQL(q.SQL)
			if err != nil {
				t.Fatalf("Q%d: %v", q.Num, err)
			}
			an := sys.Analyze(plan.Root, nil)
			if err := an.Feasible(); err != nil {
				t.Errorf("Q%d under %s: %v", q.Num, sc, err)
			}
		}
	}
}

// TestAllQueriesExecute runs the whole workload on generated data at a tiny
// scale factor (plaintext execution).
func TestAllQueriesExecute(t *testing.T) {
	cat := Catalog(0.002)
	pl := planner.New(cat)
	e := exec.NewExecutor()
	for name, tbl := range Generate(0.002, 11) {
		e.Tables[name] = tbl
	}
	for _, q := range Queries() {
		plan, err := pl.PlanSQL(q.SQL)
		if err != nil {
			t.Fatalf("Q%d plan: %v", q.Num, err)
		}
		if _, _, err := e.RunPlan(plan); err != nil {
			t.Errorf("Q%d execute: %v", q.Num, err)
		}
	}
}

func TestQueryCount(t *testing.T) {
	qs := Queries()
	if len(qs) != 22 {
		t.Fatalf("queries = %d, want 22", len(qs))
	}
	seen := map[int]bool{}
	for _, q := range qs {
		if seen[q.Num] {
			t.Errorf("duplicate query number %d", q.Num)
		}
		seen[q.Num] = true
	}
	for i := 1; i <= 22; i++ {
		if !seen[i] {
			t.Errorf("missing query %d", i)
		}
	}
}

func TestPolicyScenarios(t *testing.T) {
	cat := Catalog(1)
	la := algebra.A("lineitem", "l_quantity")

	ua := Policy(cat, UA)
	if !ua.View("X").P.Empty() || !ua.View("X").E.Empty() {
		t.Errorf("UA providers should see nothing")
	}
	if !ua.View(User).P.Has(la) {
		t.Errorf("user should see everything in plaintext")
	}
	if !ua.View(AuthorityCO).P.Has(la) {
		t.Errorf("authority should see its own data")
	}
	if ua.View(AuthorityPS).P.Has(la) {
		t.Errorf("authority should not see the other side's data")
	}

	enc := Policy(cat, UAPenc)
	vx := enc.View("X")
	if !vx.P.Empty() {
		t.Errorf("UAPenc providers should have no plaintext: %v", vx.P)
	}
	if !vx.E.Has(la) {
		t.Errorf("UAPenc providers should see lineitem encrypted")
	}

	mix := Policy(cat, UAPmix)
	vm := mix.View("Y")
	if vm.P.Empty() || vm.E.Empty() {
		t.Errorf("UAPmix providers should have both plaintext and encrypted attributes")
	}
	if vm.P.Len()+vm.E.Len() != vx.E.Len() {
		t.Errorf("UAPmix split sizes: %d + %d != %d", vm.P.Len(), vm.E.Len(), vx.E.Len())
	}
}
