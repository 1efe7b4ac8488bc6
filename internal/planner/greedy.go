package planner

import (
	"mpq/internal/algebra"
	"mpq/internal/sql"
)

// Mode selects the join-ordering strategy of a planning pass.
type Mode string

const (
	// ModeCost is the classical strategy: a left-deep join tree in FROM
	// order with textbook System R selectivity estimation. It is the
	// default and matches the plans the paper's tool consumed from
	// PostgreSQL.
	ModeCost Mode = "cost"
	// ModeGreedy orders the join tree greedily from predicate patterns
	// alone, without trusting catalog statistics: start from the relation
	// with the most selective pushed-down pattern, then repeatedly join
	// the connected relation with the strongest combination of applicable
	// join conditions and local patterns.
	ModeGreedy Mode = "greedy"
)

// PlanOptions parameterizes one planning pass. The zero value reproduces
// Plan's historical behavior exactly (ModeCost).
type PlanOptions struct {
	Mode Mode
}

// Pattern weights for statistics-free greedy ordering: how selective a basic
// comparison usually is, judged by its shape alone (equality binds hardest,
// LIKE weakest). The absolute values are unitless scores, not selectivities.
const (
	weightEq    = 4.0
	weightRange = 2.0
	weightLike  = 1.0
	// weightJoin scores each join condition applicable at an expansion
	// step; connecting conditions dominate local patterns so the greedy
	// walk follows the join graph.
	weightJoin = 8.0
)

// patternScore scores a predicate's basic comparisons by shape. Higher means
// "probably more selective".
func patternScore(p algebra.Pred) float64 {
	s := 0.0
	algebra.WalkPred(p, func(q algebra.Pred) {
		switch x := q.(type) {
		case *algebra.CmpAV:
			switch {
			case x.Op == sql.OpEq:
				s += weightEq
			case x.Op == sql.OpLike:
				s += weightLike
			default:
				s += weightRange
			}
		case *algebra.CmpAA:
			if x.Op == sql.OpEq {
				s += weightEq
			} else {
				s += weightRange
			}
		}
	})
	return s
}

// greedyOrder returns the join order for the FROM relations. Ties always
// break toward FROM position, so the order is deterministic for a given
// statement. relConj holds each relation's pushed-down conjuncts; joinConj
// is the pool of cross-relation join conjuncts.
func greedyOrder(rels []*algebra.Relation, relConj map[string][]algebra.Pred,
	joinConj []algebra.Pred) []*algebra.Relation {
	if len(rels) < 2 {
		return rels
	}

	// applicable returns the join conjuncts that become evaluable when rel
	// joins the set in: conjuncts mentioning rel whose other relations are
	// all already joined.
	applicable := func(rel string, in map[string]bool) []algebra.Pred {
		var out []algebra.Pred
		for _, c := range joinConj {
			mentions := relationsOf(c)
			if _, ok := mentions[rel]; !ok {
				continue
			}
			all := true
			for other := range mentions {
				if other != rel && !in[other] {
					all = false
					break
				}
			}
			if all {
				out = append(out, c)
			}
		}
		return out
	}

	local := make(map[string]float64, len(rels))
	for _, r := range rels {
		local[r.Name] = patternScore(algebra.And(relConj[r.Name]...))
	}

	// Start relation: the strongest local pattern on its own.
	start := 0
	for i := 1; i < len(rels); i++ {
		if local[rels[i].Name] > local[rels[start].Name] {
			start = i
		}
	}

	order := []*algebra.Relation{rels[start]}
	in := map[string]bool{rels[start].Name: true}
	for len(order) < len(rels) {
		bestIdx := -1
		var bestScore float64
		bestConnected := false
		for i, r := range rels {
			if in[r.Name] {
				continue
			}
			conds := applicable(r.Name, in)
			connected := len(conds) > 0
			// A connected candidate always beats a cartesian product.
			if bestIdx >= 0 && bestConnected && !connected {
				continue
			}
			better := bestIdx < 0 || (connected && !bestConnected)
			// Maximize applicable join conditions, then local pattern
			// strength.
			score := weightJoin*float64(len(conds)) + local[r.Name]
			if !better && connected == bestConnected {
				better = score > bestScore
			}
			if better {
				bestIdx, bestScore, bestConnected = i, score, connected
			}
		}
		order = append(order, rels[bestIdx])
		in[rels[bestIdx].Name] = true
	}
	return order
}
