package assignment_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"mpq/internal/assignment"
	"mpq/internal/planner"
	"mpq/internal/profile"
	"mpq/internal/tpch"
)

// TestPartialAggregationCells pins where Optimize marks pre-shuffle partial
// aggregation over the 66 TPC-H cells (22 queries × UA/UAPenc/UAPmix) at
// sf 0.001, and checks every mark against Definition 4.2: the producer of
// the shipped node must be an authorized assignee of each moved selection
// and of the group-by.
func TestPartialAggregationCells(t *testing.T) {
	cat := tpch.Catalog(0.001)
	pl := planner.New(cat)
	m := tpch.Model()
	var cells []string
	for _, sc := range tpch.Scenarios() {
		sys := tpch.System(cat, sc)
		for _, q := range tpch.Queries() {
			plan, err := pl.PlanSQL(q.SQL)
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			res, err := assignment.Optimize(sys, sys.Analyze(plan.Root, nil), m, assignment.Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", sc, q.Name, err)
			}
			ext := res.Extended
			for shipped, pe := range ext.Partials {
				producer := ext.Assign.Executor(shipped)
				if producer == ext.Assign.Executor(pe.GroupBy) {
					t.Errorf("%s/%s: mark on a same-subject edge at %s", sc, q.Name, producer)
				}
				view := sys.Policy.View(producer)
				for _, s := range pe.Selects {
					if !view.AuthorizedAssignee([]profile.Profile{ext.Profiles[s.Child]}, ext.Profiles[s]) {
						t.Errorf("%s/%s: %s not authorized for moved %s", sc, q.Name, producer, s.Op())
					}
				}
				if !view.AuthorizedAssignee([]profile.Profile{ext.Profiles[pe.GroupBy.Child]}, ext.Profiles[pe.GroupBy]) {
					t.Errorf("%s/%s: %s not authorized for moved %s", sc, q.Name, producer, pe.GroupBy.Op())
				}
				cells = append(cells, fmt.Sprintf("%s/Q%d %s→%s σ×%d", sc, q.Num,
					producer, ext.Assign.Executor(pe.GroupBy), len(pe.Selects)))
			}
		}
	}
	sort.Strings(cells)
	got := strings.Join(cells, "\n")
	want := strings.Join([]string{
		"UAPenc/Q1 A1→X σ×1",
		"UAPmix/Q1 A1→X σ×1",
		"UAPmix/Q13 A1→X σ×1",
		"UAPmix/Q22 A1→X σ×1",
	}, "\n")
	if got != want {
		t.Errorf("partial-aggregation marks:\n%s\nwant:\n%s", got, want)
	}
}
