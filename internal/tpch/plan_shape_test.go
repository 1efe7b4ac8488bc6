package tpch

import (
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/planner"
)

// TestTPCHPlansRespectPushdown verifies the classical-optimization
// assumptions the paper relies on, across the whole workload: projections
// pushed into the leaves (a leaf retrieves only attributes the query
// needs), single-relation filters pushed below joins, and no cartesian
// products (every workload query is join-connected).
func TestTPCHPlansRespectPushdown(t *testing.T) {
	cat := Catalog(1)
	pl := planner.New(cat)
	for _, q := range Queries() {
		plan, err := pl.PlanSQL(q.SQL)
		if err != nil {
			t.Fatalf("Q%d: %v", q.Num, err)
		}
		algebra.PostOrder(plan.Root, func(n algebra.Node) {
			switch x := n.(type) {
			case *algebra.Base:
				rel := cat.Relation(x.Name)
				if len(x.Attrs) >= len(rel.Columns) && len(rel.Columns) > 3 {
					t.Errorf("Q%d: leaf %s retrieves all %d columns (projection not pushed)",
						q.Num, x.Name, len(rel.Columns))
				}
			case *algebra.Product:
				t.Errorf("Q%d: cartesian product in plan", q.Num)
			case *algebra.Select:
				// A single-relation conjunction directly above a leaf is a
				// pushed filter; selections above joins must reference more
				// than one relation or aggregates.
				if _, overBase := x.Child.(*algebra.Base); !overBase {
					if _, overJoin := x.Child.(*algebra.Join); overJoin {
						rels := map[string]bool{}
						aggs := false
						algebra.WalkPred(x.Pred, func(p algebra.Pred) {
							switch c := p.(type) {
							case *algebra.CmpAV:
								rels[c.A.Rel] = true
								if c.Agg != "" {
									aggs = true
								}
							case *algebra.CmpAA:
								rels[c.L.Rel] = true
								rels[c.R.Rel] = true
							}
						})
						if len(rels) == 1 && !aggs {
							t.Errorf("Q%d: single-relation filter %s left above a join", q.Num, x.Pred)
						}
					}
				}
			}
		})
	}
}

// TestTPCHJoinCounts checks each plan joins exactly its FROM relations.
func TestTPCHJoinCounts(t *testing.T) {
	cat := Catalog(1)
	pl := planner.New(cat)
	for _, q := range Queries() {
		plan, err := pl.PlanSQL(q.SQL)
		if err != nil {
			t.Fatalf("Q%d: %v", q.Num, err)
		}
		leaves, joins := 0, 0
		algebra.PostOrder(plan.Root, func(n algebra.Node) {
			switch n.(type) {
			case *algebra.Base:
				leaves++
			case *algebra.Join:
				joins++
			}
		})
		if joins != leaves-1 {
			t.Errorf("Q%d: %d joins for %d leaves", q.Num, joins, leaves)
		}
	}
}

// TestTPCHOutputsResolve checks that every output column and every ORDER BY
// of the workload resolves to a column of the plan root.
func TestTPCHOutputsResolve(t *testing.T) {
	cat := Catalog(1)
	pl := planner.New(cat)
	for _, q := range Queries() {
		plan, err := pl.PlanSQL(q.SQL)
		if err != nil {
			t.Fatalf("Q%d: %v", q.Num, err)
		}
		width := len(plan.Root.Schema())
		for _, oc := range plan.Output {
			if oc.Index < 0 || oc.Index >= width {
				t.Errorf("Q%d: output %q index %d out of range %d", q.Num, oc.Name, oc.Index, width)
			}
			if oc.Name == "" {
				t.Errorf("Q%d: unnamed output column", q.Num)
			}
		}
		for _, o := range plan.OrderBy {
			if o.Index < 0 || o.Index >= width {
				t.Errorf("Q%d: order-by index %d out of range %d", q.Num, o.Index, width)
			}
		}
	}
}
