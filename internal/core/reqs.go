// Package core ties the profile and authorization models together into the
// paper's query-processing pipeline (Sections 5 and 6): it computes minimum
// required views (Definition 5.2) and assignment candidates Λ (Definition
// 5.3), extends a plan with on-the-fly encryption and decryption for a
// chosen assignment (Definition 5.4), selects encryption schemes per
// attribute, and establishes the query-plan keys (Definition 6.1).
package core

import (
	"mpq/internal/algebra"
	"mpq/internal/sql"
)

// Capabilities describes which kinds of computation over encrypted data the
// deployment supports. They determine, per operation, the set Ap of
// attributes that must be available in plaintext (Section 5: "for operations
// that are not supported by cryptographic techniques ... the optimizer
// specifies the need for maintaining data in plaintext").
type Capabilities struct {
	Equality bool // deterministic encryption: equality conditions, joins, grouping
	Range    bool // order-preserving encryption: <, <=, >, >= conditions
	Sum      bool // Paillier: sum and avg aggregates
	MinMax   bool // order-preserving encryption: min/max aggregates
	UDF      bool // udfs evaluable over encrypted inputs (rare; default false)
}

// DefaultCapabilities matches the paper's experimental setup: four schemes
// (randomized, deterministic, Paillier, OPE) and plaintext-only udfs.
func DefaultCapabilities() Capabilities {
	return Capabilities{Equality: true, Range: true, Sum: true, MinMax: true, UDF: false}
}

// PlaintextReqs maps each plan node to the set Ap of operand attributes the
// node's operation needs in plaintext.
type PlaintextReqs map[algebra.Node]algebra.AttrSet

// reqState is the bottom-up bookkeeping of Requirements: which visible
// attributes are aggregate outputs (and of which function), and which
// attributes have already been involved in a comparison below (an attribute
// both compared and additively aggregated cannot live under a single
// encryption scheme, so the later of the two operations gets a plaintext
// requirement).
type reqState struct {
	aggOut    map[algebra.Attr]sql.AggFunc
	compared  algebra.AttrSet
	storedEnc algebra.AttrSet
	types     map[algebra.Attr]algebra.ColType
}

// RequirementsTyped computes the default plaintext requirements of every
// node of the plan under the given capabilities, such that one encryption
// scheme per attribute suffices: an operation whose encrypted evaluation
// would demand conflicting schemes (e.g. a Paillier sum over an attribute
// compared below) requires plaintext instead. With attribute types (nil for
// none), order comparisons over strings require plaintext too: OPE encodes
// numeric and date domains only.
func RequirementsTyped(root algebra.Node, caps Capabilities, types map[algebra.Attr]algebra.ColType) PlaintextReqs {
	reqs := make(PlaintextReqs)
	states := make(map[algebra.Node]*reqState)

	// Attributes stored encrypted at rest use deterministic encryption:
	// only equality is evaluable without decrypting them first.
	storedEnc := storedEncrypted(root)

	algebra.PostOrder(root, func(n algebra.Node) {
		st := &reqState{aggOut: make(map[algebra.Attr]sql.AggFunc), storedEnc: storedEnc, types: types}
		for _, c := range n.Children() {
			cs := states[c]
			for a, f := range cs.aggOut {
				st.aggOut[a] = f
			}
			st.compared = st.compared.Union(cs.compared)
		}
		var ap algebra.AttrSet

		switch x := n.(type) {
		case *algebra.Select:
			addPredReqs(&ap, x.Pred, caps, st)
		case *algebra.Join:
			addPredReqs(&ap, x.Cond, caps, st)
		case *algebra.GroupBy:
			for _, k := range x.Keys {
				if algebra.IsSynthetic(k) {
					continue
				}
				if !caps.Equality || isAggOut(st, k) {
					ap.Add(k)
				}
				st.compared.Add(k) // grouping is equality-based
			}
			// Attributes under both an additive and an order aggregate
			// would need conflicting schemes: require plaintext.
			var additive, ordered algebra.AttrSet
			for _, spec := range x.Aggs {
				if spec.Star || algebra.IsSynthetic(spec.Attr) {
					continue
				}
				switch spec.Func {
				case sql.AggAvg, sql.AggSum:
					additive.Add(spec.Attr)
				case sql.AggMin, sql.AggMax:
					ordered.Add(spec.Attr)
				}
			}
			newAggOut := make(map[algebra.Attr]sql.AggFunc)
			for _, spec := range x.Aggs {
				if spec.Star || algebra.IsSynthetic(spec.Attr) {
					continue
				}
				a := spec.Attr
				switch spec.Func {
				case sql.AggAvg, sql.AggSum:
					// Paillier supports no comparison: an attribute already
					// compared below (or itself an aggregate output from a
					// group-by beneath, or also order-aggregated here, or
					// deterministically encrypted at rest) must be
					// aggregated in plaintext.
					if !caps.Sum || st.compared.Has(a) || isAggOut(st, a) || ordered.Has(a) || storedEnc.Has(a) {
						ap.Add(a)
					}
				case sql.AggMin, sql.AggMax:
					if !caps.MinMax || isAggOut(st, a) || additive.Has(a) || storedEnc.Has(a) ||
						(types != nil && types[a] == algebra.TString) {
						ap.Add(a)
					}
				case sql.AggCount:
					// counting needs no access to the values
				}
				newAggOut[a] = spec.Func
			}
			for a, f := range newAggOut {
				st.aggOut[a] = f
			}
		case *algebra.UDF:
			if !caps.UDF {
				ap.Add(x.Args...)
			}
			for _, a := range x.Args {
				delete(st.aggOut, a)
			}
			st.aggOut[x.Out] = sql.AggNone
		}
		ap.Remove(algebra.CountAttr())
		reqs[n] = ap
		states[n] = st
	})
	return reqs
}

// storedEncrypted returns the attributes the plan's base relations hold
// encrypted at rest.
func storedEncrypted(root algebra.Node) algebra.AttrSet {
	var out algebra.AttrSet
	algebra.PostOrder(root, func(n algebra.Node) {
		if b, ok := n.(*algebra.Base); ok {
			out = out.Union(b.EncSet())
		}
	})
	return out
}

func isAggOut(st *reqState, a algebra.Attr) bool {
	f, ok := st.aggOut[a]
	return ok && f != sql.AggNone
}

// needsPlainCompare reports whether comparing attribute a with operator op
// requires plaintext under the capabilities and the bottom-up state.
func needsPlainCompare(a algebra.Attr, op sql.CompareOp, caps Capabilities, st *reqState) bool {
	if algebra.IsSynthetic(a) {
		return false
	}
	switch st.aggOut[a] {
	case sql.AggAvg, sql.AggSum:
		// Paillier ciphertexts support no comparison at all.
		return true
	case sql.AggMin, sql.AggMax:
		// OPE ciphertexts: order comparisons work iff OPE is available.
		return !caps.Range
	}
	switch {
	case op == sql.OpLike:
		return true // no scheme supports pattern matching
	case op.IsEquality() || op == sql.OpNeq:
		return !caps.Equality
	case st.storedEnc.Has(a):
		// Deterministically encrypted at rest: ranges need decryption.
		return true
	case st.types != nil && st.types[a] == algebra.TString:
		// OPE encodes numeric/date domains only: string ranges (and string
		// min/max) need plaintext.
		return true
	default:
		return !caps.Range
	}
}

// addPredReqs adds to *ap the attributes of pred that must be plaintext for
// its evaluation. For attribute-attribute conditions, a plaintext need on
// either side forces both sides to plaintext (the two operands of a
// comparison must be uniformly visible). Every compared attribute is also
// recorded in the state for scheme-conflict avoidance.
func addPredReqs(ap *algebra.AttrSet, pred algebra.Pred, caps Capabilities, st *reqState) {
	algebra.WalkPred(pred, func(p algebra.Pred) {
		switch c := p.(type) {
		case *algebra.CmpAV:
			if needsPlainCompare(c.A, c.Op, caps, st) {
				ap.Add(c.A)
			}
			if !algebra.IsSynthetic(c.A) {
				st.compared.Add(c.A)
			}
		case *algebra.CmpAA:
			l := needsPlainCompare(c.L, c.Op, caps, st)
			r := needsPlainCompare(c.R, c.Op, caps, st)
			if l || r {
				ap.Add(c.L, c.R)
			}
			st.compared.Add(c.L, c.R)
		}
	})
	ap.Remove(algebra.CountAttr())
	st.compared.Remove(algebra.CountAttr())
}
