package core

import (
	"mpq/internal/algebra"
	"mpq/internal/authz"
	"mpq/internal/profile"
)

// PartialEdge is one cross-subject edge that carries pre-shuffle partial
// aggregation: the producer of the shipped node also evaluates the
// consumer's selection chain and folds the group-by's aggregates per group,
// so the edge ships one partial row per group and the consumer merges the
// partials.
type PartialEdge struct {
	GroupBy *algebra.GroupBy
	// Selects is the chain between GroupBy.Child and the shipped node,
	// outermost first; empty when the edge feeds the group-by directly.
	Selects []*algebra.Select
}

// MarkPartials records in ext.Partials every cross-subject edge whose
// consumer reaches a group-by through selections only, provided the
// producer is an authorized assignee (Definition 4.2) of every moved
// selection and of the group-by. Moving work to the producer is a
// reassignment of those operations, so the check is the one Λ applies to
// any assignee; the assignment λ and its cost are left unchanged.
func (s *System) MarkPartials(ext *ExtendedPlan) {
	at := ext.Assign.Executor
	admits := func(v authz.View, n algebra.Node) bool {
		return v.AuthorizedAssignee([]profile.Profile{ext.Profiles[n.Children()[0]]}, ext.Profiles[n])
	}
	algebra.PostOrder(ext.Root, func(n algebra.Node) {
		g, ok := n.(*algebra.GroupBy)
		if !ok {
			return
		}
		var sels []*algebra.Select
		cur := g.Child
		for at(cur) == at(g) {
			sel, ok := cur.(*algebra.Select)
			if !ok {
				return // the chain passes another operator of the consumer
			}
			sels = append(sels, sel)
			cur = sel.Child
		}
		view := s.Policy.View(at(cur))
		for _, sel := range sels {
			if !admits(view, sel) {
				return
			}
		}
		if !admits(view, g) {
			return
		}
		if ext.Partials == nil {
			ext.Partials = make(map[algebra.Node]PartialEdge)
		}
		ext.Partials[cur] = PartialEdge{GroupBy: g, Selects: sels}
	})
}
