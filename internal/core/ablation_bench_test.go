package core_test

import (
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/assignment"
	"mpq/internal/core"
	"mpq/internal/cost"
	"mpq/internal/planner"
	"mpq/internal/tpch"
)

// BenchmarkAblationStrategies compares the paper's strategy (candidates
// first, minimal extension after assignment) against maximizing visibility
// (no encryption: fewer candidates) and minimizing visibility (encrypt
// everything at the sources: more encryption work) on the TPC-H workload
// under UAPenc. Reported metrics are workload costs normalized to the
// paper's strategy = 1.
func BenchmarkAblationStrategies(b *testing.B) {
	cat := tpch.Catalog(1)
	pl := planner.New(cat)
	sys := tpch.System(cat, tpch.UAPenc)
	m := tpch.Model()

	var paper, maxVis, minVis float64
	run := func() {
		paper, maxVis, minVis = 0, 0, 0
		for _, q := range tpch.Queries() {
			plan, err := pl.PlanSQL(q.SQL)
			if err != nil {
				b.Fatal(err)
			}
			an := sys.Analyze(plan.Root, nil)
			res, err := assignment.Optimize(sys, an, m, assignment.Options{})
			if err != nil {
				b.Fatal(err)
			}
			paper += res.Cost.Total()

			// Maximizing visibility: candidates without encryption. Some
			// operations may have no candidate at all (the strategy cannot
			// run the query); charge the best full-plaintext execution at
			// the user as the fallback the scenario would force.
			anMax := sys.AnalyzeMaxVisibility(plan.Root)
			if anMax.Feasible() == nil {
				resMax, err := assignment.Optimize(sys, anMax, m, assignment.Options{})
				if err != nil {
					b.Fatal(err)
				}
				maxVis += resMax.Cost.Total()
			} else {
				maxVis += userOnlyCost(sys, an, m, plan)
			}

			// Minimizing visibility: same assignment as the paper's
			// strategy, but the minimum required views are materialized
			// verbatim (everything encrypted at the sources).
			extMin, err := sys.ExtendMinVisibility(an, res.Lambda)
			if err != nil {
				b.Fatal(err)
			}
			minVis += cost.OfPlan(extMin.Root, extMin.Assign.Executor,
				extMin.Schemes, extMin.Profiles, m).Total()
		}
	}
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(1.0, "cost-paper")
	b.ReportMetric(maxVis/paper, "cost-max-visibility")
	b.ReportMetric(minVis/paper, "cost-min-visibility")
}

// userOnlyCost prices executing the whole plan at the user.
func userOnlyCost(sys *core.System, an *core.Analysis, m *cost.Model, plan *planner.Plan) float64 {
	lambda := make(core.Assignment)
	algebra.PostOrder(plan.Root, func(n algebra.Node) {
		if len(n.Children()) > 0 {
			lambda[n] = m.User
		}
	})
	ext, err := sys.Extend(an, lambda)
	if err != nil {
		return 0
	}
	return cost.OfPlan(ext.Root, ext.Assign.Executor, ext.Schemes, ext.Profiles, m).Total()
}
