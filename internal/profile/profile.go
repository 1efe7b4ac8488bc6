package profile

import (
	"fmt"

	"mpq/internal/algebra"
)

// Profile is the relation profile of Definition 3.1: the 5-tuple
// [Rvp, Rve, Rip, Rie, R≃]. VP/VE are the visible attributes of the schema
// in plaintext/encrypted form; IP/IE the implicit (indirectly leaked)
// attributes; Eq the closure of the equivalence relationship among
// attributes connected by conditions.
//
// A profile is immutable once built: the propagation rules below never
// mutate a profile they are given, and return profiles that share the
// operand's unchanged sets and equivalence structure.
type Profile struct {
	VP algebra.AttrSet // visible plaintext
	VE algebra.AttrSet // visible encrypted
	IP algebra.AttrSet // implicit plaintext
	IE algebra.AttrSet // implicit encrypted
	Eq *EquivSets      // R≃
}

// New returns an empty profile.
func New() Profile { return Profile{Eq: NewEquivSets()} }

// ForBase returns the profile of a base relation: all attributes visible in
// plaintext, no implicit content, no equivalences ([{a1..an}, ∅, ∅, ∅, ∅]).
func ForBase(attrs []algebra.Attr) Profile {
	p := New()
	p.VP = algebra.NewAttrSet(attrs...)
	return p
}

// Visible returns VP ∪ VE.
func (p Profile) Visible() algebra.AttrSet { return p.VP.Union(p.VE) }

// Implicit returns IP ∪ IE.
func (p Profile) Implicit() algebra.AttrSet { return p.IP.Union(p.IE) }

// Equal reports whether two profiles are identical.
func (p Profile) Equal(o Profile) bool {
	return p.VP.Equal(o.VP) && p.VE.Equal(o.VE) &&
		p.IP.Equal(o.IP) && p.IE.Equal(o.IE) && p.Eq.Equal(o.Eq)
}

// String renders the profile in the paper's v/i/≃ tag notation, with
// encrypted components wrapped in ⟨⟩ (standing in for the gray background
// of Figure 2).
func (p Profile) String() string {
	return fmt.Sprintf("v: %s ⟨%s⟩  i: %s ⟨%s⟩  ≃: %s",
		p.VP, p.VE, p.IP, p.IE, p.Eq)
}

// ---------------------------------------------------------------------------
// Operator propagation rules (Figure 2)

// Project applies the projection rule: visible attributes are intersected
// with the projection list; implicit attributes and equivalences are
// untouched.
func Project(p Profile, attrs []algebra.Attr) Profile {
	A := algebra.NewAttrSet(attrs...)
	A.Remove(algebra.CountAttr()) // count(*) carries no attribute information
	out := p
	out.VP = p.VP.Intersect(A)
	out.VE = p.VE.Intersect(A)
	return out
}

// Select applies the selection rule for a predicate: every attribute
// compared against a value ('a op x') joins the implicit component (in the
// form it is visible in the operand); every pair of compared attributes
// ('ai op aj') joins the equivalence sets.
func Select(p Profile, pred algebra.Pred) Profile {
	out := p
	va := algebra.ValueAttrs(pred)
	if va.Intersects(p.VP) {
		out.IP = p.IP.Union(p.VP.Intersect(va))
	}
	if va.Intersects(p.VE) {
		out.IE = p.IE.Union(p.VE.Intersect(va))
	}
	if pairs := algebra.AttrPairs(pred); len(pairs) > 0 {
		out.Eq = p.Eq.Clone()
		for _, pair := range pairs {
			out.Eq.Union(algebra.NewAttrSet(pair[0], pair[1]))
		}
	}
	return out
}

// Product applies the cartesian product rule: component-wise union of the
// operand profiles.
func Product(l, r Profile) Profile {
	out := Profile{
		VP: l.VP.Union(r.VP),
		VE: l.VE.Union(r.VE),
		IP: l.IP.Union(r.IP),
		IE: l.IE.Union(r.IE),
		Eq: l.Eq.Clone(),
	}
	out.Eq.UnionAll(r.Eq)
	return out
}

// Join applies the join rule: the product of the operands followed by the
// selection with the join condition (σC(Rl × Rr)).
func Join(l, r Profile, cond algebra.Pred) Profile {
	return Select(Product(l, r), cond)
}

// GroupBy applies the group-by rule for γ_{A,f(a)}: the visible attributes
// are restricted to A ∪ {a} — A plus the aggregated attributes in the
// multi-aggregate generalization, A only for count(*) — and the grouping
// attributes A join the implicit component (their grouping leaks their
// values).
func GroupBy(p Profile, keys []algebra.Attr, aggAttrs algebra.AttrSet) Profile {
	A := algebra.NewAttrSet(keys...)
	A.Remove(algebra.CountAttr())
	keep := A.Union(aggAttrs)
	keep.Remove(algebra.CountAttr())
	out := p
	out.VP = p.VP.Intersect(keep)
	out.VE = p.VE.Intersect(keep)
	out.IP = p.IP.Union(p.VP.Intersect(A))
	out.IE = p.IE.Union(p.VE.Intersect(A))
	return out
}

// UDF applies the user-defined-function rule for µ_{A,a}: the consumed
// input attributes (A \ {a}) leave the visible components; the whole input
// set A becomes an equivalence set (the output depends on every input).
func UDF(p Profile, args []algebra.Attr, out algebra.Attr) Profile {
	A := algebra.NewAttrSet(args...)
	consumed := A.Clone()
	consumed.Remove(out)
	res := p
	res.VP = p.VP.Diff(consumed)
	res.VE = p.VE.Diff(consumed)
	res.Eq = p.Eq.Clone()
	res.Eq.Union(A)
	return res
}

// Encrypt applies the encryption rule: the attributes A move from visible
// plaintext to visible encrypted.
func Encrypt(p Profile, A algebra.AttrSet) Profile {
	moved := p.VP.Intersect(A)
	if moved.Empty() {
		return p
	}
	out := p
	out.VP = p.VP.Diff(moved)
	out.VE = p.VE.Union(moved)
	return out
}

// Decrypt applies the decryption rule: the attributes A move from visible
// encrypted to visible plaintext.
func Decrypt(p Profile, A algebra.AttrSet) Profile {
	moved := p.VE.Intersect(A)
	if moved.Empty() {
		return p
	}
	out := p
	out.VE = p.VE.Diff(moved)
	out.VP = p.VP.Union(moved)
	return out
}
