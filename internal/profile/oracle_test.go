package profile

import "mpq/internal/algebra"

// AllAttrs returns every attribute the profile mentions, including those
// appearing only in equivalence sets.
func (p Profile) AllAttrs() algebra.AttrSet {
	return p.Visible().Union(p.Implicit()).Union(p.Eq.Attrs())
}

// Same reports whether a and b are equivalent (in the same set, or equal).
func (e *EquivSets) Same(a, b algebra.Attr) bool {
	if a == b {
		return true
	}
	return e.SetOf(a).Has(b)
}

// SetOf returns the equivalence set containing a, or the empty set when a
// is only equivalent to itself.
func (e *EquivSets) SetOf(a algebra.Attr) algebra.AttrSet {
	for _, s := range e.sets {
		if s.Has(a) {
			return s
		}
	}
	return algebra.AttrSet{}
}

// Attrs returns every attribute appearing in some equivalence set.
func (e *EquivSets) Attrs() algebra.AttrSet {
	var out algebra.AttrSet
	for _, s := range e.sets {
		out = out.Union(s)
	}
	return out
}
