package planner

import (
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/sql"
)

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

func planMode(t *testing.T, cat *algebra.Catalog, q string, opts PlanOptions) *Plan {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(cat).PlanWith(stmt, opts)
	if err != nil {
		t.Fatalf("PlanWith(%q): %v", q, err)
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

// TestGreedyStartsFromStrongestPattern: without statistics, greedy anchors
// the join order at the relation with the most selective pushed-down
// pattern (T carries the only equality) and then follows the join graph, so
// the chain R—S—T plans as ((T ⋈ S) ⋈ R) with no cartesian product — while
// cost mode keeps FROM order and starts from R.
func TestGreedyStartsFromStrongestPattern(t *testing.T) {
	const q = "select ra from R, S, T where ra = sb and sc = td and te = 1"
	greedy := planMode(t, chainCatalog(), q, PlanOptions{Mode: ModeGreedy})
	if got := leftmostBase(t, greedy.Root); got != "T" {
		t.Errorf("greedy order starts at %s, want T", got)
	}
	joins, products := countOps(greedy.Root)
	if joins != 2 || products != 0 {
		t.Errorf("greedy plan has %d joins, %d products; want 2 joins, 0 products", joins, products)
	}
	costPlan := planMode(t, chainCatalog(), q, PlanOptions{})
	if got := leftmostBase(t, costPlan.Root); got != "R" {
		t.Errorf("cost order starts at %s, want R (FROM order)", got)
	}
}

// TestGreedyDetachesOnConditions: explicit JOIN ... ON clauses do not pin
// greedy mode to the statement order; their conjuncts float to whichever
// join first makes them evaluable.
func TestGreedyDetachesOnConditions(t *testing.T) {
	const q = "select ra from R join S on ra = sb join T on sc = td where te = 1"
	greedy := planMode(t, chainCatalog(), q, PlanOptions{Mode: ModeGreedy})
	if got := leftmostBase(t, greedy.Root); got != "T" {
		t.Errorf("greedy order starts at %s, want T", got)
	}
	joins, products := countOps(greedy.Root)
	if joins != 2 || products != 0 {
		t.Errorf("greedy plan has %d joins, %d products; want 2 joins, 0 products", joins, products)
	}
}

// TestGreedyDisconnectedFallsBackToProduct: relations sharing no join
// condition still plan (as a cartesian product), in both modes.
func TestGreedyDisconnectedFallsBackToProduct(t *testing.T) {
	const q = "select ra from R, T"
	for _, opts := range []PlanOptions{{}, {Mode: ModeGreedy}} {
		p := planMode(t, chainCatalog(), q, opts)
		joins, products := countOps(p.Root)
		if joins != 0 || products != 1 {
			t.Errorf("mode %q: %d joins, %d products; want the product", opts.Mode, joins, products)
		}
	}
}

// TestGreedySingleAndTwoRelations: degenerate FROM clauses plan under both
// modes with identical leaf sets.
func TestGreedySingleAndTwoRelations(t *testing.T) {
	for _, q := range []string{
		"select ra from R where ra = 1",
		"select ra from R join S on ra = sb",
	} {
		costPlan := planMode(t, chainCatalog(), q, PlanOptions{})
		greedy := planMode(t, chainCatalog(), q, PlanOptions{Mode: ModeGreedy})
		if len(costPlan.Output) != len(greedy.Output) {
			t.Errorf("%q: output arity differs across modes", q)
		}
	}
}
