package core_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/assignment"
	"mpq/internal/core"
	"mpq/internal/planner"
	"mpq/internal/tpch"
)

// TestOptimizeLeavesAnalysisUnchanged: Extend's build passes the views' E
// sets down the plan without cloning them, so every TPC-H cell checks that
// the analysis' views and plaintext requirements read the same after
// Optimize (which extends many trial assignments) as before.
func TestOptimizeLeavesAnalysisUnchanged(t *testing.T) {
	cat := tpch.Catalog(0.001)
	pl := planner.New(cat)
	m := tpch.Model()
	snapshot := func(an *core.Analysis) string {
		var lines []string
		for s, v := range an.Views {
			lines = append(lines, fmt.Sprintf("view %s P %s E %s", s, v.P, v.E))
		}
		sort.Strings(lines)
		algebra.PostOrder(an.Root, func(n algebra.Node) {
			lines = append(lines, fmt.Sprintf("reqs %s %s", n.Op(), an.Reqs[n]))
		})
		return strings.Join(lines, "\n")
	}
	for _, sc := range tpch.Scenarios() {
		sys := tpch.System(cat, sc)
		for _, q := range tpch.Queries() {
			plan, err := pl.PlanSQL(q.SQL)
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			an := sys.Analyze(plan.Root, nil)
			before := snapshot(an)
			if _, err := assignment.Optimize(sys, an, m, assignment.Options{}); err != nil {
				t.Fatalf("%s/%s: %v", sc, q.Name, err)
			}
			if after := snapshot(an); after != before {
				t.Errorf("%s/%s: Optimize changed the analysis:\n%s\nwas\n%s", sc, q.Name, after, before)
			}
		}
	}
}
