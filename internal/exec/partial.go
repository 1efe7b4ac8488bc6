package exec

import (
	"fmt"
	"math/big"
	"strings"

	"mpq/internal/algebra"
	"mpq/internal/sql"
)

// Pre-shuffle partial aggregation: the producer of a marked shuffle edge
// folds its rows per group and ships one partial row per group; the
// consumer's group-by merges the partials.

// partialRel marks the synthetic attributes of a partial-aggregated shuffle
// edge's wire schema.
const partialRel = "§partial"

// ShufflePartialSchema is the wire schema of a partial-aggregated shuffle
// edge: the group-by keys followed by one (count, payload) column pair per
// aggregate. COUNT ships a NULL payload (the count column carries it), SUM
// and AVG ship the partial sum (plaintext float or Paillier cipher), MIN and
// MAX ship the partial extreme.
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

// partial freezes the accumulator into its shuffle form: the row count it
// folded plus the payload the consumer resumes from.
func (acc *groupAcc) partial() (int64, Value, error) {
	if acc.byteMode {
		acc.materializeMinMax()
	}
	switch acc.fn {
	case sql.AggCount:
		return acc.count, Null(), nil
	case sql.AggSum, sql.AggAvg:
		if acc.phe != nil {
			return acc.count, Enc(&Cipher{Scheme: algebra.SchemePaillier, KeyID: acc.pheC.KeyID,
				Phe: acc.phe, Div: 1, Plain: acc.pheC.Plain}), nil
		}
		return acc.count, Float(acc.sum), nil
	case sql.AggMin:
		return acc.count, acc.min, nil
	case sql.AggMax:
		return acc.count, acc.max, nil
	}
	return 0, Value{}, fmt.Errorf("exec: unknown aggregate %q", acc.fn)
}

// absorb folds one shipped partial into the accumulator: counts add, partial
// sums add (Paillier partials add homomorphically), partial extremes compare
// under the same strict rule as row-order adds. The inverse of partial.
func (acc *groupAcc) absorb(count int64, payload Value, ring ringFn) error {
	if count == 0 {
		return nil
	}
	first := acc.count == 0
	acc.count += count
	switch acc.fn {
	case sql.AggCount:
		return nil
	case sql.AggSum, sql.AggAvg:
		if payload.IsCipher() {
			if payload.C.Scheme != algebra.SchemePaillier {
				return fmt.Errorf("exec: %s partial over %s ciphertext", acc.fn, payload.C.Scheme)
			}
			if acc.phe == nil {
				acc.phe = new(big.Int).Set(payload.C.Phe)
				acc.pheC = payload.C
				return nil
			}
			pk, err := pheKey(ring, payload.C.KeyID)
			if err != nil {
				return err
			}
			pk.AddTo(acc.phe, payload.C.Phe)
			return nil
		}
		f, err := payload.AsFloat()
		if err != nil {
			return err
		}
		acc.sum += f
		return nil
	case sql.AggMin, sql.AggMax:
		if first {
			acc.min, acc.max = payload, payload
			return nil
		}
		if acc.byteMode {
			acc.materializeMinMax()
		}
		c, err := compareForSort(payload, acc.min)
		if err != nil {
			return err
		}
		if c < 0 {
			acc.min = payload
		}
		c, err = compareForSort(payload, acc.max)
		if err != nil {
			return err
		}
		if c > 0 {
			acc.max = payload
		}
		return nil
	}
	return fmt.Errorf("exec: unknown aggregate %q", acc.fn)
}

// addPartialBatch ingests a batch of shipped partial rows (ShufflePartialSchema
// layout): group keys in the leading columns, then one (count, payload) pair
// per aggregate, folded in via absorb.
func (gt *groupTable) addPartialBatch(b *Batch) error {
	nk := len(gt.keyIdx)
	var err error
	for ri := 0; ri < b.N; ri++ {
		gt.keyBuf = gt.keyBuf[:0]
		for k := 0; k < nk; k++ {
			gt.keyBuf, err = appendCellKey(gt.keyBuf, &b.Cols[k], ri)
			if err != nil {
				return err
			}
			gt.keyBuf = append(gt.keyBuf, '\x1f')
		}
		grp, err := gt.groupFor(string(gt.keyBuf), b, ri)
		if err != nil {
			return err
		}
		for i := range gt.specs {
			count := b.Cols[nk+2*i].Value(ri)
			payload := b.Cols[nk+2*i+1].Value(ri)
			if err := grp.accs[i].absorb(count.I, payload, gt.ring); err != nil {
				return err
			}
		}
	}
	return nil
}

// partialAggOp is the producer half of pre-shuffle partial aggregation: it
// drains its child, folds every aggregate per group exactly as the final
// group-by would, and emits one partial row per group instead of the raw
// rows. The consumer's group-by (ingesting under mergePartials) resumes from
// these partials; with a single producer folding in row order the merged
// result is bit-identical to the unshuffled fold.
type partialAggOp struct {
	child  Operator
	e      *Executor
	node   *algebra.GroupBy
	schema []algebra.Attr
	keyIdx []int
	specs  []algebra.AggSpec
	aggIdx []int
	batch  int
	ring   ringFn

	built bool
	out   [][]Value
	pos   int
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
// ShufflePartialSchema(g) rows. Key and aggregate attributes resolve against
// the child schema exactly as the consumer group-by would resolve them. The
// stage is traced under PartialSpan{g} and answers g's fault point.
func NewShufflePartial(e *Executor, g *algebra.GroupBy, child Operator) (Operator, error) {
	in := child.Schema()
	keyIdx := make([]int, len(g.Keys))
	for i, k := range g.Keys {
		ix := schemaIndex(in, k)
		if ix < 0 {
			return nil, fmt.Errorf("exec: shuffle partial: group key %s not in input", k)
		}
		keyIdx[i] = ix
	}
	aggIdx := make([]int, len(g.Aggs))
	for i, sp := range g.Aggs {
		if sp.Star {
			aggIdx[i] = -1
			continue
		}
		ix := schemaIndex(in, sp.Attr)
		if ix < 0 {
			return nil, fmt.Errorf("exec: shuffle partial: aggregate attribute %s not in input", sp.Attr)
		}
		aggIdx[i] = ix
	}
	op := &partialAggOp{
		child: child, e: e, node: g, schema: ShufflePartialSchema(g),
		keyIdx: keyIdx, aggIdx: aggIdx, specs: g.Aggs,
		batch: e.batchSize(), ring: e.ringCache(),
	}
	return e.instrument(op, PartialSpan{g}, PartialSpan{g}.Op(), g.Op()), nil
}

func (p *partialAggOp) Schema() []algebra.Attr { return p.schema }

func (p *partialAggOp) Open() error {
	p.built, p.out, p.pos = false, nil, 0
	return p.child.Open()
}

func (p *partialAggOp) Close() error { return p.child.Close() }

func (p *partialAggOp) build() error {
	gt := newGroupTable(p.keyIdx, p.aggIdx, p.specs, p.ring).budgeted(p.e, PartialSpan{p.node})
	defer gt.releaseMem()
	if err := gt.fill(p.child); err != nil {
		return err
	}
	p.out = make([][]Value, 0, len(gt.order))
	for _, hk := range gt.order {
		grp := gt.groups[hk]
		row := make([]Value, 0, len(grp.keyVals)+2*len(p.specs))
		row = append(row, grp.keyVals...)
		for i := range p.specs {
			count, payload, err := grp.accs[i].partial()
			if err != nil {
				return err
			}
			row = append(row, Int(count), payload)
		}
		p.out = append(p.out, row)
	}
	return nil
}

func (p *partialAggOp) Next() (*Batch, error) {
	if !p.built {
		if err := p.build(); err != nil {
			return nil, err
		}
		p.built = true
	}
	if p.pos >= len(p.out) {
		return nil, nil
	}
	end := p.pos + p.batch
	if end > len(p.out) {
		end = len(p.out)
	}
	window := p.out[p.pos:end]
	p.pos = end
	return NewBatchFromRows(window, len(p.schema))
}
