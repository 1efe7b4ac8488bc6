// Package profile implements the paper's relation content model (Section 3):
// the relation profile, a 5-tuple [Rvp, Rve, Rip, Rie, R≃] capturing the
// attributes a relation exposes — visible or implicit, plaintext or
// encrypted — plus the closure of the equivalence relationships established
// by conditions comparing attributes. Profile propagation follows Figure 2
// of the paper operator by operator.
package profile

import (
	"slices"
	"strings"

	"mpq/internal/algebra"
)

// EquivSets is the R≃ component of a profile: a disjoint-set structure over
// attributes. Only sets of two or more attributes are represented;
// singletons are implicit (an attribute not appearing in any set is
// equivalent only to itself).
type EquivSets struct {
	sets []algebra.AttrSet
}

// NewEquivSets returns an empty equivalence structure.
func NewEquivSets() *EquivSets { return &EquivSets{} }

// Clone returns an independent copy. It shares the sets themselves, which
// EquivSets replaces on merge and never mutates in place.
func (e *EquivSets) Clone() *EquivSets {
	return &EquivSets{sets: slices.Clone(e.sets)}
}

// Union inserts the equivalence relationship among the attributes of A,
// merging every existing set that intersects A (the ∪ abuse of notation in
// Section 3.2). A with fewer than two attributes is a no-op. e may keep A
// itself: the caller must not mutate A afterwards.
func (e *EquivSets) Union(A algebra.AttrSet) {
	if A.Len() < 2 {
		return
	}
	merged := A
	rest := e.sets[:0:0]
	for _, s := range e.sets {
		if s.Intersects(merged) {
			merged = merged.Union(s)
		} else {
			rest = append(rest, s)
		}
	}
	e.sets = append(rest, merged)
}

// UnionAll merges every equivalence set of o into e (R≃i ∪ R≃j).
func (e *EquivSets) UnionAll(o *EquivSets) {
	for _, s := range o.sets {
		e.Union(s)
	}
}

// Sets returns the equivalence sets in deterministic order (by rendering).
func (e *EquivSets) Sets() []algebra.AttrSet { return sortedSets(slices.Clone(e.sets)) }

// First returns the first set, in Sets order, satisfying match.
func (e *EquivSets) First(match func(algebra.AttrSet) bool) (algebra.AttrSet, bool) {
	var found []algebra.AttrSet
	for _, s := range e.sets {
		if match(s) {
			found = append(found, s)
		}
	}
	if len(found) == 0 {
		return algebra.AttrSet{}, false
	}
	return sortedSets(found)[0], true
}

func sortedSets(sets []algebra.AttrSet) []algebra.AttrSet {
	slices.SortFunc(sets, func(a, b algebra.AttrSet) int { return strings.Compare(a.String(), b.String()) })
	return sets
}

// Len returns the number of equivalence sets (of size ≥ 2).
func (e *EquivSets) Len() int { return len(e.sets) }

// RefinedBy reports whether every set of e is contained in some set of o
// (condition ii of Theorem 3.1: equivalence sets only grow up the plan).
func (e *EquivSets) RefinedBy(o *EquivSets) bool {
	for _, s := range e.sets {
		contained := false
		for _, t := range o.sets {
			if s.SubsetOf(t) {
				contained = true
				break
			}
		}
		if !contained {
			return false
		}
	}
	return true
}

// Equal reports whether e and o represent the same partition.
func (e *EquivSets) Equal(o *EquivSets) bool {
	return len(e.sets) == len(o.sets) && e.RefinedBy(o) && o.RefinedBy(e)
}

// String renders the sets as {{a, b}, {c, d}} in deterministic order.
func (e *EquivSets) String() string {
	parts := make([]string, 0, len(e.sets))
	for _, s := range e.Sets() {
		parts = append(parts, s.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
