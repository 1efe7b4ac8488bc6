package planner

import (
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/sql"
)

// statCatalog builds a catalog exercising every statistics regime: full
// stats (WithStats), rows but no per-column distincts (RowsOnly), and no
// statistics at all (Bare).
func statCatalog() *algebra.Catalog {
	cat := algebra.NewCatalog()
	cat.Add(&algebra.Relation{Name: "WithStats", Authority: "A", Rows: 1000, Columns: []algebra.Column{
		{Name: "k", Type: algebra.TInt, Width: 4, Distinct: 50},
		{Name: "s", Type: algebra.TString, Width: 20, Distinct: 10},
	}})
	cat.Add(&algebra.Relation{Name: "RowsOnly", Authority: "A", Rows: 400, Columns: []algebra.Column{
		{Name: "k", Type: algebra.TInt, Width: 4},
	}})
	cat.Add(&algebra.Relation{Name: "Bare", Authority: "A", Columns: []algebra.Column{
		{Name: "k", Type: algebra.TInt, Width: 4},
	}})
	return cat
}

func av(rel, col string, op sql.CompareOp) *algebra.CmpAV {
	return &algebra.CmpAV{A: algebra.A(rel, col), Op: op, V: sql.NumberValue(7)}
}

// TestSelectivityGoldens pins the estimator's range, LIKE, inequality, and
// missing-statistics branches, so a change in plan cost is never silent
// estimator drift.
func TestSelectivityGoldens(t *testing.T) {
	est := newEstimator(statCatalog())
	cases := []struct {
		name string
		pred algebra.Pred
		want float64
	}{
		{"eq with distinct", av("WithStats", "k", sql.OpEq), 1.0 / 50},
		{"neq with distinct", av("WithStats", "k", sql.OpNeq), 1 - 1.0/50},
		{"like", &algebra.CmpAV{A: algebra.A("WithStats", "s"), Op: sql.OpLike, V: sql.StringValue("%x%")}, likeSel},
		{"range lt", av("WithStats", "k", sql.OpLt), rangeSel},
		{"range leq", av("WithStats", "k", sql.OpLeq), rangeSel},
		{"range gt", av("WithStats", "k", sql.OpGt), rangeSel},
		{"range geq", av("WithStats", "k", sql.OpGeq), rangeSel},
		// No per-column distinct: equality falls back to the relation's
		// row count as the distinct-value estimate.
		{"eq rows fallback", av("RowsOnly", "k", sql.OpEq), 1.0 / 400},
		// No statistics at all: the System R default kicks in.
		{"eq no stats", av("Bare", "k", sql.OpEq), 1.0 / defaultDistinct},
		{"neq no stats", av("Bare", "k", sql.OpNeq), 1 - 1.0/defaultDistinct},
		// Unknown relation behaves like a stats-free one.
		{"eq unknown rel", av("Nope", "k", sql.OpEq), 1.0 / defaultDistinct},
		// Attribute-attribute comparisons: equality via the larger
		// distinct count, ranges via the range default.
		{"join eq", &algebra.CmpAA{L: algebra.A("WithStats", "k"), Op: sql.OpEq, R: algebra.A("RowsOnly", "k")}, 1.0 / 400},
		{"join range", &algebra.CmpAA{L: algebra.A("WithStats", "k"), Op: sql.OpLt, R: algebra.A("RowsOnly", "k")}, rangeSel},
	}
	for _, tc := range cases {
		if got := est.selectivity(tc.pred); got != tc.want {
			t.Errorf("%s: selectivity = %v, want %v", tc.name, got, tc.want)
		}
	}
}
