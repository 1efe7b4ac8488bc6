package dispatch

import (
	"strings"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/assignment"
	"mpq/internal/core"
	"mpq/internal/planner"
	"mpq/internal/tpch"
)

// tpchExtended prepares TPC-H query q under scenario sc as the engine does:
// plan, analyze, and optimize, which marks the partial-aggregated edges.
func tpchExtended(t *testing.T, sc tpch.Scenario, sf float64, q tpch.Query) *core.ExtendedPlan {
	t.Helper()
	cat := tpch.Catalog(sf)
	sys := core.NewSystem(tpch.Policy(cat, sc), tpch.Subjects()...)
	sys.Types = cat.TypesOf()
	plan, err := planner.New(cat).PlanSQL(q.SQL)
	if err != nil {
		t.Fatalf("Q%d: %v", q.Num, err)
	}
	res, err := assignment.Optimize(sys, sys.Analyze(plan.Root, nil), tpch.Model(), assignment.Options{})
	if err != nil {
		t.Fatalf("%s Q%d: %v", sc, q.Num, err)
	}
	return res.Extended
}

// TestPartitionRendersPartialWhereItRuns: UAPenc Q1 at sf 0.0004 marks the
// A1 → X edge, so A1 evaluates the shipdate selection and folds the partial
// aggregates, and X merges them. The Figure 8 sub-queries must say so.
func TestPartitionRendersPartialWhereItRuns(t *testing.T) {
	ext := tpchExtended(t, tpch.UAPenc, 0.0004, tpch.Queries()[0])
	if len(ext.Partials) != 1 {
		t.Fatalf("UAPenc Q1: %d partial marks, want 1", len(ext.Partials))
	}
	d := Partition(ext)
	sqlOf := make(map[string]string)
	for _, f := range d.Fragments {
		sqlOf[f.ID] = f.SQL()
	}
	producer, consumer := sqlOf["reqA1"], sqlOf["reqX"]
	if !strings.Contains(producer, "← γ-partial[") || !strings.Contains(producer, "(σ[lineitem.l_shipdate <= ") {
		t.Errorf("producer does not render the moved selection under the partial fold:\n%s", producer)
	}
	if strings.Contains(consumer, "σ[") || !strings.Contains(consumer, "(⟦reqA1⟧)") || strings.Contains(consumer, "γ-partial") {
		t.Errorf("consumer renders more than the merging group-by over the partials:\n%s", consumer)
	}
}

// TestPartitionRendersEachOperationOnce: on every TPC-H cell, each σ and γ of
// the extended plan is rendered in exactly one fragment; a marked edge's
// group-by counts as two halves, the producer's γ-partial and the
// consumer's merge.
func TestPartitionRendersEachOperationOnce(t *testing.T) {
	marks := 0
	for _, sc := range tpch.Scenarios() {
		for _, q := range tpch.Queries() {
			ext := tpchExtended(t, sc, 0.0004, q)
			var sels, groups int
			algebra.PostOrder(ext.Root, func(n algebra.Node) {
				switch n.(type) {
				case *algebra.Select:
					sels++
				case *algebra.GroupBy:
					groups++
				}
			})
			var text strings.Builder
			for _, f := range Partition(ext).Fragments {
				text.WriteString(f.SQL())
			}
			s := text.String()
			got := [3]int{strings.Count(s, "σ["), strings.Count(s, "γ["), strings.Count(s, "γ-partial[")}
			if want := [3]int{sels, groups, len(ext.Partials)}; got != want {
				t.Errorf("%s Q%d: rendered σ, γ, γ-partial %v, plan has %v\n%s", sc, q.Num, got, want, s)
			}
			marks += len(ext.Partials)
		}
	}
	if marks == 0 {
		t.Error("no TPC-H cell carries a partial mark")
	}
}
