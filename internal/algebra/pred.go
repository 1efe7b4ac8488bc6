package algebra

import (
	"fmt"

	"mpq/internal/sql"
)

// Pred is a boolean predicate over qualified attributes. The paper's model
// distinguishes two basic condition forms: 'a op x' (attribute against
// value) and 'ai op aj' (attribute against attribute); arbitrary boolean
// combinations are allowed.
type Pred interface {
	predNode()
	String() string
	// Attrs returns the attributes the predicate mentions.
	Attrs() AttrSet
}

// CmpAV is a basic condition of the form 'a op x' with x a literal value.
// Agg carries the aggregate function when the condition appears in a HAVING
// clause (e.g. avg(P) > 100 in the running example).
type CmpAV struct {
	A   Attr
	Op  sql.CompareOp
	V   sql.Value
	Agg sql.AggFunc
}

func (*CmpAV) predNode() {}

// String renders the condition in SQL-like syntax.
func (c *CmpAV) String() string {
	lhs := c.A.String()
	if c.Agg != sql.AggNone {
		lhs = fmt.Sprintf("%s(%s)", c.Agg, c.A)
	}
	return fmt.Sprintf("%s %s %s", lhs, c.Op, c.V)
}

// Attrs returns the single attribute of the condition.
func (c *CmpAV) Attrs() AttrSet { return NewAttrSet(c.A) }

// CmpAA is a basic condition of the form 'ai op aj' comparing two
// attributes. Evaluating it requires uniform visibility of both operands
// (both plaintext or both encrypted) and makes the attributes equivalent in
// the profile of the result.
type CmpAA struct {
	L  Attr
	Op sql.CompareOp
	R  Attr
}

func (*CmpAA) predNode() {}

// String renders the condition in SQL-like syntax.
func (c *CmpAA) String() string { return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R) }

// Attrs returns the two attributes of the condition.
func (c *CmpAA) Attrs() AttrSet { return NewAttrSet(c.L, c.R) }

// AndPred is a conjunction of predicates.
type AndPred struct{ Preds []Pred }

func (*AndPred) predNode() {}

// String renders the conjunction in SQL-like syntax.
func (p *AndPred) String() string { return joinPreds(p.Preds, " AND ") }

// Attrs returns the union of the conjuncts' attributes.
func (p *AndPred) Attrs() AttrSet { return unionAttrs(p.Preds) }

// OrPred is a disjunction of predicates.
type OrPred struct{ Preds []Pred }

func (*OrPred) predNode() {}

// String renders the disjunction in SQL-like syntax.
func (p *OrPred) String() string { return joinPreds(p.Preds, " OR ") }

// Attrs returns the union of the disjuncts' attributes.
func (p *OrPred) Attrs() AttrSet { return unionAttrs(p.Preds) }

// NotPred is a negated predicate.
type NotPred struct{ Inner Pred }

func (*NotPred) predNode() {}

// String renders the negation in SQL-like syntax.
func (p *NotPred) String() string { return "NOT (" + p.Inner.String() + ")" }

// Attrs returns the inner predicate's attributes.
func (p *NotPred) Attrs() AttrSet { return p.Inner.Attrs() }

func joinPreds(ps []Pred, sep string) string {
	out := ""
	for i, p := range ps {
		if i > 0 {
			out += sep
		}
		out += "(" + p.String() + ")"
	}
	return out
}

func unionAttrs(ps []Pred) AttrSet {
	var out AttrSet
	for _, p := range ps {
		out = out.Union(p.Attrs())
	}
	return out
}

// And combines predicates into a conjunction, flattening nested AndPreds and
// dropping nils. It returns nil when no predicate remains, and the single
// predicate unwrapped when only one remains.
func And(ps ...Pred) Pred {
	var flat []Pred
	for _, p := range ps {
		switch x := p.(type) {
		case nil:
		case *AndPred:
			flat = append(flat, x.Preds...)
		default:
			flat = append(flat, p)
		}
	}
	switch len(flat) {
	case 0:
		return nil
	case 1:
		return flat[0]
	}
	return &AndPred{Preds: flat}
}

// Conjuncts splits a predicate into top-level AND-ed parts.
func Conjuncts(p Pred) []Pred {
	if p == nil {
		return nil
	}
	if a, ok := p.(*AndPred); ok {
		var out []Pred
		for _, q := range a.Preds {
			out = append(out, Conjuncts(q)...)
		}
		return out
	}
	return []Pred{p}
}

// WalkPred invokes fn on every basic condition in the predicate tree.
func WalkPred(p Pred, fn func(Pred)) {
	switch x := p.(type) {
	case nil:
	case *CmpAV, *CmpAA:
		fn(x)
	case *AndPred:
		for _, q := range x.Preds {
			WalkPred(q, fn)
		}
	case *OrPred:
		for _, q := range x.Preds {
			WalkPred(q, fn)
		}
	case *NotPred:
		WalkPred(x.Inner, fn)
	}
}

// AttrPairs returns every {ai, aj} pair compared by a CmpAA condition
// anywhere in the predicate.
func AttrPairs(p Pred) [][2]Attr {
	var out [][2]Attr
	WalkPred(p, func(q Pred) {
		if aa, ok := q.(*CmpAA); ok {
			out = append(out, [2]Attr{aa.L, aa.R})
		}
	})
	return out
}

// ValueAttrs returns every attribute appearing in a CmpAV condition anywhere
// in the predicate (these become implicit attributes in the result profile).
func ValueAttrs(p Pred) AttrSet {
	out := NewAttrSet()
	WalkPred(p, func(q Pred) {
		if av, ok := q.(*CmpAV); ok {
			out.Add(av.A)
		}
	})
	return out
}
