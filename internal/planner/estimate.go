package planner

import (
	"mpq/internal/algebra"
	"mpq/internal/sql"
)

// estimator provides textbook selectivity and cardinality estimates from
// catalog statistics.
type estimator struct {
	cat *algebra.Catalog
}

func newEstimator(cat *algebra.Catalog) *estimator {
	return &estimator{cat: cat}
}

// Default estimates when statistics are missing (System R heuristics).
const (
	defaultDistinct = 100.0
	rangeSel        = 1.0 / 3
	likeSel         = 1.0 / 4
)

// distinct returns the estimated number of distinct values of an attribute.
func (e *estimator) distinct(a algebra.Attr) float64 {
	if rel := e.cat.Relation(a.Rel); rel != nil {
		if col := rel.Column(a.Name); col != nil && col.Distinct > 0 {
			return col.Distinct
		}
		if rel.Rows > 0 {
			return rel.Rows
		}
	}
	return defaultDistinct
}

// selectivity estimates the fraction of tuples a predicate retains.
func (e *estimator) selectivity(p algebra.Pred) float64 {
	switch x := p.(type) {
	case nil:
		return 1
	case *algebra.CmpAV:
		switch {
		case x.Op == sql.OpEq:
			return clamp(1 / e.distinct(x.A))
		case x.Op == sql.OpNeq:
			return clamp(1 - 1/e.distinct(x.A))
		case x.Op == sql.OpLike:
			return likeSel
		default:
			return rangeSel
		}
	case *algebra.CmpAA:
		if x.Op == sql.OpEq {
			return clamp(1 / maxf(e.distinct(x.L), e.distinct(x.R)))
		}
		return rangeSel
	case *algebra.AndPred:
		s := 1.0
		for _, q := range x.Preds {
			s *= e.selectivity(q)
		}
		return s
	case *algebra.OrPred:
		s := 0.0
		for _, q := range x.Preds {
			qs := e.selectivity(q)
			s = s + qs - s*qs
		}
		return clamp(s)
	case *algebra.NotPred:
		return clamp(1 - e.selectivity(x.Inner))
	}
	return 0.5
}

// joinSelectivity estimates the fraction of the cartesian product a join
// condition retains.
func (e *estimator) joinSelectivity(p algebra.Pred) float64 {
	return e.selectivity(p)
}

// groups estimates the number of groups produced by grouping on keys over
// inRows input tuples.
func (e *estimator) groups(keys []algebra.Attr, inRows float64) float64 {
	if len(keys) == 0 {
		return 1
	}
	g := 1.0
	for _, k := range keys {
		g *= e.distinct(k)
		if g > inRows {
			break
		}
	}
	if g > inRows/2 && inRows >= 2 {
		g = inRows / 2
	}
	if g < 1 {
		g = 1
	}
	return g
}

func clamp(s float64) float64 {
	if s < 1e-9 {
		return 1e-9
	}
	if s > 1 {
		return 1
	}
	return s
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
