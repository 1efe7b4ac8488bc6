package exec

import (
	"fmt"
	"strings"

	"mpq/internal/algebra"
)

// Pre-shuffle partial aggregation: the producer of a marked shuffle edge
// folds its rows per group and ships one partial row per group; the
// consumer's group-by merges the partials.

// partialRel marks the synthetic attributes of a partial-aggregated shuffle
// edge's wire schema.
const partialRel = "§partial"

// ShufflePartialSchema is the wire schema of a partial-aggregated shuffle
// edge: the group-by keys followed by one (count, payload) column pair per
// aggregate, as groupTable.window emits them under partial.
func ShufflePartialSchema(g *algebra.GroupBy) []algebra.Attr {
	out := make([]algebra.Attr, 0, len(g.Keys)+2*len(g.Aggs))
	out = append(out, g.Keys...)
	for i := range g.Aggs {
		out = append(out,
			algebra.Attr{Rel: partialRel, Name: fmt.Sprintf("count%d", i)},
			algebra.Attr{Rel: partialRel, Name: fmt.Sprintf("agg%d", i)})
	}
	return out
}

// PartialSpan keys the trace span of the producer half of g's
// partial-aggregated shuffle edge; the consumer's merge keeps g's own span.
type PartialSpan struct{ G *algebra.GroupBy }

// Op renders the producer-side fold, e.g. γ-partial[k; sum(a)].
func (p PartialSpan) Op() string { return "γ-partial" + strings.TrimPrefix(p.G.Op(), "γ") }

// NewShuffleSelect compiles s's predicate against child's schema and wraps
// child in the filter: the producer-side evaluation of a consumer selection
// sitting between a shuffle edge and the group-by it feeds. Filters commute
// with the shuffle — the producer evaluates the same compiled predicate
// (shared constant cache, ciphertext comparisons need no key material) over
// rows it already holds, so the downstream partial fold sees exactly the
// rows the consumer's filter would have passed. The filter carries s's
// span and fault point, exactly as if Build had compiled s.
func NewShuffleSelect(e *Executor, s *algebra.Select, child Operator) (Operator, error) {
	pred, err := e.compileColPred(s.Pred, resolverFor(child.Schema(), s.Child))
	if err != nil {
		return nil, err
	}
	return e.instrument(&filterOp{child: child, pred: pred}, s, s.Op(), s.Op()), nil
}

// NewShufflePartial wraps child (the producer-side pipeline beneath a
// shuffle edge feeding g) with a partial aggregation stage emitting
// ShufflePartialSchema(g) rows, one per group. Key and aggregate attributes
// resolve against the child schema exactly as the consumer group-by would
// resolve them. The stage is traced under PartialSpan{g} and answers g's
// fault point.
func NewShufflePartial(e *Executor, g *algebra.GroupBy, child Operator) (Operator, error) {
	op, err := e.newGroupByOp(g, child, false, true)
	if err != nil {
		return nil, err
	}
	return e.instrument(op, PartialSpan{g}, PartialSpan{g}.Op(), g.Op()), nil
}
