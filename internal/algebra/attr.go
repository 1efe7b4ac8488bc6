// Package algebra defines the relational algebra plan representation the
// authorization model operates on: qualified attributes, predicates, plan
// nodes (projection, selection, cartesian product, join, group-by, udf, and
// the encryption/decryption operators of the paper's Section 5), together
// with a relation catalog and cardinality statistics.
package algebra

import (
	"sort"
	"strings"
)

// Attr is a globally-qualified attribute: the base relation that owns it and
// the attribute name. Qualification matters because equivalence sets span
// relations once joins are involved (Section 3.1 of the paper).
type Attr struct {
	Rel  string
	Name string
}

// A constructs an attribute. It is a terse helper for tests and examples.
func A(rel, name string) Attr { return Attr{Rel: rel, Name: name} }

// String renders the attribute as rel.name, or just name when unqualified.
func (a Attr) String() string {
	if a.Rel == "" {
		return a.Name
	}
	return a.Rel + "." + a.Name
}

// Less orders attributes lexicographically (relation first, then name).
func (a Attr) Less(b Attr) bool {
	if a.Rel != b.Rel {
		return a.Rel < b.Rel
	}
	return a.Name < b.Name
}

// AttrSet is a set of attributes.
type AttrSet map[Attr]struct{}

// NewAttrSet builds a set from the given attributes.
func NewAttrSet(attrs ...Attr) AttrSet {
	s := make(AttrSet, len(attrs))
	for _, a := range attrs {
		s[a] = struct{}{}
	}
	return s
}

// Add inserts the attributes into s and returns s.
func (s AttrSet) Add(attrs ...Attr) AttrSet {
	for _, a := range attrs {
		s[a] = struct{}{}
	}
	return s
}

// Has reports whether a is in the set.
func (s AttrSet) Has(a Attr) bool {
	_, ok := s[a]
	return ok
}

// Clone returns an independent copy of the set.
func (s AttrSet) Clone() AttrSet {
	c := make(AttrSet, len(s))
	for a := range s {
		c[a] = struct{}{}
	}
	return c
}

// Union returns a new set holding s ∪ t. It clones the larger operand and
// adds the smaller.
func (s AttrSet) Union(t AttrSet) AttrSet {
	if len(s) < len(t) {
		s, t = t, s
	}
	c := s.Clone()
	for a := range t {
		c[a] = struct{}{}
	}
	return c
}

// Intersect returns a new set holding s ∩ t. It iterates the smaller
// operand.
func (s AttrSet) Intersect(t AttrSet) AttrSet {
	if len(s) > len(t) {
		s, t = t, s
	}
	c := make(AttrSet)
	for a := range s {
		if t.Has(a) {
			c[a] = struct{}{}
		}
	}
	return c
}

// Diff returns a new set holding s \ t.
func (s AttrSet) Diff(t AttrSet) AttrSet {
	c := make(AttrSet)
	for a := range s {
		if !t.Has(a) {
			c[a] = struct{}{}
		}
	}
	return c
}

// SubsetOf reports whether every attribute of s is in t.
func (s AttrSet) SubsetOf(t AttrSet) bool {
	if len(s) > len(t) {
		return false
	}
	for a := range s {
		if !t.Has(a) {
			return false
		}
	}
	return true
}

// Equal reports whether s and t hold exactly the same attributes.
func (s AttrSet) Equal(t AttrSet) bool {
	return len(s) == len(t) && s.SubsetOf(t)
}

// Empty reports whether the set has no attributes.
func (s AttrSet) Empty() bool { return len(s) == 0 }

// Sorted returns the attributes in deterministic (lexicographic) order.
func (s AttrSet) Sorted() []Attr {
	out := make([]Attr, 0, len(s))
	for a := range s {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// String renders the set as {a, b, c} in deterministic order.
func (s AttrSet) String() string {
	parts := make([]string, 0, len(s))
	for _, a := range s.Sorted() {
		parts = append(parts, a.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
