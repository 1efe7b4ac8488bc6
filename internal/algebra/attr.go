// Package algebra defines the relational algebra plan representation the
// authorization model operates on: qualified attributes, predicates, plan
// nodes (projection, selection, cartesian product, join, group-by, udf, and
// the encryption/decryption operators of the paper's Section 5), together
// with a relation catalog and cardinality statistics.
//
// Attribute sets are bitsets over a dense attribute index. Every distinct
// Attr gets a small integer id the first time a set (or a catalog) sees it;
// ids are never reused or released, so the index holds one entry per
// distinct (relation, name) pair the process has ever interned. Interning is
// safe for concurrent use: lookups read an immutable snapshot through an
// atomic pointer, and a new attribute is published under a mutex as a fresh
// snapshot. Set operations (Union, Intersect, Diff, SubsetOf, Equal, ...)
// work on the bit words alone and never consult the index. Id order is an
// accident of interning order and is never observable: Sorted, String and
// every rendering order attributes lexicographically.
package algebra

import (
	"iter"
	"maps"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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

func compareAttrs(a, b Attr) int {
	if c := strings.Compare(a.Rel, b.Rel); c != 0 {
		return c
	}
	return strings.Compare(a.Name, b.Name)
}

// attrIndex is one immutable snapshot of the attribute index: attrs[id] is
// the attribute with that id, ids its inverse.
type attrIndex struct {
	ids   map[Attr]int
	attrs []Attr
}

var (
	index    atomic.Pointer[attrIndex]
	internMu sync.Mutex // serializes publication of new snapshots
)

func init() { index.Store(&attrIndex{ids: map[Attr]int{}}) }

// lookupID returns a's id without interning it.
func lookupID(a Attr) (int, bool) {
	id, ok := index.Load().ids[a]
	return id, ok
}

// attrID returns a's id, interning a when it is new.
func attrID(a Attr) int {
	id, ok := lookupID(a)
	if !ok {
		internAttrs([]Attr{a})
		id, _ = lookupID(a)
	}
	return id
}

// internAttrs gives every new attribute of attrs an id, publishing one new
// snapshot for the whole batch (a catalog interns its columns at once, so a
// wide schema costs one copy of the index, not one per column).
func internAttrs(attrs []Attr) {
	internMu.Lock()
	defer internMu.Unlock()
	old := index.Load()
	next := &attrIndex{ids: maps.Clone(old.ids), attrs: slices.Clip(old.attrs)}
	for _, a := range attrs {
		if _, ok := next.ids[a]; !ok {
			next.ids[a] = len(next.attrs)
			next.attrs = append(next.attrs, a)
		}
	}
	if len(next.attrs) > len(old.attrs) {
		index.Store(next)
	}
}

// AttrSet is a set of attributes: bit id%64 of w[id/64] is set when the
// attribute with that id is a member. The zero value is the empty set.
//
// Union, Intersect, Diff and Clone return sets with storage of their own.
// Add and Remove mutate the set in place through a pointer, so a function
// that adds to a set it did not create must take *AttrSet. A plain copy of
// an AttrSet value shares its words: Clone a set before mutating a copy of
// it.
type AttrSet struct {
	// w has no trailing zero word, and len(w) == cap(w), so growing a set
	// never writes into storage a copy still reads.
	w []uint64
}

// NewAttrSet builds a set from the given attributes.
func NewAttrSet(attrs ...Attr) AttrSet {
	var s AttrSet
	s.Add(attrs...)
	return s
}

// Add inserts the attributes into s.
func (s *AttrSet) Add(attrs ...Attr) {
	for _, a := range attrs {
		id := attrID(a)
		if i := id >> 6; i >= len(s.w) {
			w := make([]uint64, i+1)
			copy(w, s.w)
			s.w = w
		}
		s.w[id>>6] |= 1 << (id & 63)
	}
}

// Remove deletes a from s.
func (s *AttrSet) Remove(a Attr) {
	id, ok := lookupID(a)
	if !ok || id>>6 >= len(s.w) {
		return
	}
	s.w[id>>6] &^= 1 << (id & 63)
	s.w = trim(s.w)
}

// Has reports whether a is in the set.
func (s AttrSet) Has(a Attr) bool {
	if len(s.w) == 0 {
		return false
	}
	id, ok := lookupID(a)
	return ok && id>>6 < len(s.w) && s.w[id>>6]&(1<<(id&63)) != 0
}

// trim drops trailing zero words and caps the slice at its length.
func trim(w []uint64) []uint64 {
	n := len(w)
	for n > 0 && w[n-1] == 0 {
		n--
	}
	if n == 0 {
		return nil
	}
	return w[:n:n]
}

// Clone returns an independent copy of the set.
func (s AttrSet) Clone() AttrSet { return AttrSet{w: slices.Clone(s.w)} }

// Union returns a new set holding s ∪ t.
func (s AttrSet) Union(t AttrSet) AttrSet {
	if len(s.w) < len(t.w) {
		s, t = t, s
	}
	c := s.Clone()
	for i, x := range t.w {
		c.w[i] |= x
	}
	return c
}

// Intersect returns a new set holding s ∩ t.
func (s AttrSet) Intersect(t AttrSet) AttrSet {
	n := min(len(s.w), len(t.w))
	for n > 0 && s.w[n-1]&t.w[n-1] == 0 {
		n--
	}
	w := make([]uint64, n)
	for i := range w {
		w[i] = s.w[i] & t.w[i]
	}
	return AttrSet{w: trim(w)}
}

// Diff returns a new set holding s \ t.
func (s AttrSet) Diff(t AttrSet) AttrSet {
	w := slices.Clone(s.w)
	for i := range min(len(w), len(t.w)) {
		w[i] &^= t.w[i]
	}
	return AttrSet{w: trim(w)}
}

// Intersects reports whether s and t share an attribute.
func (s AttrSet) Intersects(t AttrSet) bool {
	for i := range min(len(s.w), len(t.w)) {
		if s.w[i]&t.w[i] != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every attribute of s is in t.
func (s AttrSet) SubsetOf(t AttrSet) bool {
	if len(s.w) > len(t.w) {
		return false
	}
	for i, x := range s.w {
		if x&^t.w[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t hold exactly the same attributes.
func (s AttrSet) Equal(t AttrSet) bool { return slices.Equal(s.w, t.w) }

// Empty reports whether the set has no attributes.
func (s AttrSet) Empty() bool { return len(s.w) == 0 }

// Len returns the number of attributes in the set.
func (s AttrSet) Len() int {
	n := 0
	for _, x := range s.w {
		n += bits.OnesCount64(x)
	}
	return n
}

// All iterates over the attributes of the set in an unspecified order.
func (s AttrSet) All() iter.Seq[Attr] {
	return func(yield func(Attr) bool) {
		attrs := index.Load().attrs
		for i, x := range s.w {
			for x != 0 {
				b := bits.TrailingZeros64(x)
				if !yield(attrs[i<<6|b]) {
					return
				}
				x &= x - 1
			}
		}
	}
}

// Sorted returns the attributes in deterministic (lexicographic) order.
func (s AttrSet) Sorted() []Attr {
	out := make([]Attr, 0, s.Len())
	for a := range s.All() {
		out = append(out, a)
	}
	slices.SortFunc(out, compareAttrs)
	return out
}

// String renders the set as {a, b, c} in deterministic order.
func (s AttrSet) String() string {
	parts := make([]string, 0, s.Len())
	for _, a := range s.Sorted() {
		parts = append(parts, a.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
