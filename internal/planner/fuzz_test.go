package planner_test

import (
	"math"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/planner"
	"mpq/internal/profile"
	"mpq/internal/sql"
	"mpq/internal/tpch"
)

// extraPlanSeeds supplements the 22-query TPC-H corpus with the paper's
// running example and parser edge cases, so mutation starts from inputs that
// stress binding and classification, not just well-formed workload SQL.
var extraPlanSeeds = []string{
	`select distinct C from Hosp h, Ins c where not (B = 1 or B != 2)`,
	`select T, avg(P) from Hosp join Ins on S=C where D='stroke' group by T having avg(P)>100`,
	`select S from Hosp where D like 'fl%' and B < 100 order by S desc limit 3`,
	`select count(*) from Hosp, Ins`,
	`select a from t where s like 'it''s _%' and x = -1.5 -- comment
	/* block */ order by a asc`,
	``,
	`select`,
	`select * from`,
	`select a from t where`,
	`select l_orderkey from lineitem join lineitem on l_orderkey = l_orderkey`,
	`select a from t limit 999999999999999999999999`,
	"select \x00 from \xff",
}

// fuzzCatalog is the TPC-H catalog extended with the running-example
// relations, so both seed families bind.
func fuzzCatalog() *algebra.Catalog {
	cat := tpch.Catalog(0.01)
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

// checkWellFormed asserts structural invariants every plan must satisfy:
// each operator only references attributes its operands produce, and every
// cardinality estimate is a finite non-negative number.
func checkWellFormed(t *testing.T, root algebra.Node) {
	t.Helper()
	algebra.PostOrder(root, func(n algebra.Node) {
		if r := n.Stats().Rows; math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			t.Errorf("node %s has estimate %v", n.Op(), r)
		}
		children := n.Children()
		if len(children) == 0 {
			return
		}
		avail := algebra.NewAttrSet()
		for _, c := range children {
			avail = avail.Union(algebra.SchemaSet(c))
		}
		require := func(attrs ...algebra.Attr) {
			for _, a := range attrs {
				if algebra.IsSynthetic(a) {
					continue
				}
				if !avail.Has(a) {
					t.Errorf("node %s references %s, absent from operand schemas", n.Op(), a)
				}
			}
		}
		fromPred := func(p algebra.Pred) {
			algebra.WalkPred(p, func(q algebra.Pred) {
				switch c := q.(type) {
				case *algebra.CmpAV:
					require(c.A)
				case *algebra.CmpAA:
					require(c.L, c.R)
				}
			})
		}
		switch x := n.(type) {
		case *algebra.Select:
			fromPred(x.Pred)
		case *algebra.Join:
			fromPred(x.Cond)
		case *algebra.Project:
			require(x.Attrs...)
		case *algebra.GroupBy:
			require(x.Keys...)
			for _, a := range x.Aggs {
				if !a.Star {
					require(a.Attr)
				}
			}
		case *algebra.UDF:
			require(x.Args...)
		}
	})
}

// FuzzPlan asserts the planner's crash-freedom contract: for any input that
// parses, the planner either fails cleanly or produces a plan that is
// structurally well-formed and satisfies operand-visibility propagation.
func FuzzPlan(f *testing.F) {
	for _, q := range tpch.Queries() {
		f.Add(q.SQL)
	}
	for _, s := range extraPlanSeeds {
		f.Add(s)
	}
	pl := planner.New(fuzzCatalog())
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := sql.Parse(src)
		if err != nil {
			return
		}
		plan, err := pl.Plan(stmt)
		if err != nil {
			return
		}
		checkWellFormed(t, plan.Root)
		if err := profile.Validate(plan.Root); err != nil {
			t.Errorf("plan violates visibility propagation: %v", err)
		}
	})
}
