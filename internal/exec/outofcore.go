package exec

import (
	"context"
	"fmt"
	"math/big"
	"strings"

	"mpq/internal/algebra"
	"mpq/internal/sql"
)

// Out-of-core execution: grace-hash spilling for the two pipeline breakers
// (group-by tables and hash-join build sides) plus pre-shuffle partial
// aggregation. The shape is classical grace hashing adapted to the columnar
// runtime: when a memory reservation fails, live state is hash-partitioned
// by the canonical cell key (appendCellKey — the same bytes grouping and
// join probing already hash on) into spill runs of serialized batches, and
// each partition is re-processed recursively on read-back with the hash
// salted per level so a skewed partition re-splits differently.

const (
	// spillPartitions is the fanout of one spill pass. 32 partitions divide
	// the overflow working set enough that one extra pass covers ~32x the
	// budget, while keeping at most 32 open run writers per frozen breaker.
	spillPartitions = 32

	// maxSpillDepth caps recursive re-partitioning. A partition still over
	// budget at the cap (a single giant key, or a budget below one group's
	// footprint) is processed unbudgeted rather than erroring: the query
	// degrades to the in-memory footprint of that partition only.
	maxSpillDepth = 6
)

// spillPartition routes a canonical cell key to a partition. FNV-1a with the
// offset basis salted by level, so each recursion level distributes the same
// keys independently — a partition that came from one hash bucket at level k
// still splits 32 ways at level k+1.
func spillPartition(key []byte, level int) int {
	h := uint64(14695981039346656037) ^ (uint64(level+1) * 0x9E3779B97F4A7C15)
	for _, c := range key {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return int(h % spillPartitions)
}

// groupCost estimates the resident footprint of one new group: map entry and
// key string, pinned key values, and one accumulator per aggregate.
func groupCost(hkLen, nkeys, naggs int) int64 {
	return int64(96 + 2*hkLen + nkeys*48 + naggs*112)
}

// batchMemBytes estimates the resident footprint of a retained batch, per
// column layout. Dictionary payloads are charged per batch even though
// batches often share one dictionary, keeping the estimate conservative.
func batchMemBytes(b *Batch) int64 {
	var total int64
	for ci := range b.Cols {
		c := &b.Cols[ci]
		switch c.Kind {
		case ColInt, ColFloat:
			total += int64(8 * b.N)
		case ColStr:
			for _, s := range c.Strs {
				total += int64(16 + len(s))
			}
		case ColCipherBytes:
			for _, p := range c.Bytes {
				total += int64(25 + len(p))
			}
		case ColDict:
			total += int64(4 * b.N)
			for _, s := range c.Dict {
				total += int64(16 + len(s))
			}
		case ColCipherDict:
			total += int64(4 * b.N)
			for _, p := range c.CipherDict {
				total += int64(24 + len(p))
			}
		default:
			total += int64(48 * b.N)
			for i := range c.Vals {
				v := &c.Vals[i]
				if v.Kind == KString {
					total += int64(len(v.S))
				}
				if v.C != nil {
					total += int64(64 + len(v.C.Data))
				}
			}
		}
		total += int64(len(c.Nulls) * 8)
	}
	return total
}

// releaseRuns releases every non-nil run in rs, ignoring cleanup errors.
func releaseRuns(rs []SpillRun) {
	for _, r := range rs {
		if r != nil {
			r.Release()
		}
	}
}

// ---------------------------------------------------------------------------
// Group-by spilling

// freeze seals the resident group set after the first failed reservation:
// resident groups keep folding their rows, rows of unseen keys route to
// spill partitions from here on.
func (gt *groupTable) freeze() {
	gt.frozen = true
	gt.parts = make([]SpillRun, spillPartitions)
	gt.partSel = make([][]int32, spillPartitions)
	addSpillEvent()
}

// route records row ri for its spill partition. Only valid right after
// groupFor returned (nil, nil): gt.keyBuf still holds the row's canonical
// group key, which decides the partition.
func (gt *groupTable) route(ri int) {
	p := spillPartition(gt.keyBuf, gt.level)
	gt.partSel[p] = append(gt.partSel[p], int32(ri))
}

// flushRouted appends the rows routed from batch b to their partitions'
// runs, creating runs lazily (a partition nothing hashed into costs no
// file). Called once per ingested batch, so each partition receives at most
// one gathered sub-batch per input batch.
func (gt *groupTable) flushRouted(b *Batch) error {
	if !gt.frozen {
		return nil
	}
	for p, sel := range gt.partSel {
		if len(sel) == 0 {
			continue
		}
		if gt.parts[p] == nil {
			run, err := gt.spill.NewRun()
			if err != nil {
				return err
			}
			gt.parts[p] = run
			addSpillPartition()
		}
		if err := gt.parts[p].Append(b.Gather(sel)); err != nil {
			return err
		}
		gt.partSel[p] = sel[:0]
	}
	return nil
}

// releaseMem returns the table's group reservations to the accountant.
func (gt *groupTable) releaseMem() {
	if gt.mem != nil && gt.reserved > 0 {
		gt.mem.Release(gt.reserved)
		gt.reserved = 0
	}
}

// discard releases the table's reservations and spill runs; the error-path
// counterpart of emitGroups.
func (gt *groupTable) discard() {
	gt.releaseMem()
	releaseRuns(gt.parts)
	gt.parts = nil
}

// emitGroups streams gt's groups to emit: the resident groups first, in
// first-seen order, then each spill partition re-aggregated recursively
// (partition 0..P-1, recursively in the same order). Without spilling this
// is exactly the first-seen order of the sequential build; with spilling the
// output order relaxes to per-partition order, but every group is still the
// row-order fold of its rows, so float accumulation stays bit-identical per
// group. All reservations and runs are released, on success and on error.
func emitGroups(gt *groupTable, emit func(*group) error) error {
	for _, hk := range gt.order {
		if err := emit(gt.groups[hk]); err != nil {
			gt.discard()
			return err
		}
	}
	gt.groups, gt.order, gt.codeGroups = nil, nil, nil
	gt.releaseMem()
	parts := gt.parts
	gt.parts = nil
	for pi, run := range parts {
		if run == nil {
			continue
		}
		parts[pi] = nil
		if err := emitPartitionGroups(gt, run, emit); err != nil {
			releaseRuns(parts[pi+1:])
			return err
		}
	}
	return nil
}

// emitPartitionGroups re-aggregates one spill partition: its batches replay
// through a fresh groupTable inheriting the parent's shape (and, below the
// depth cap, its budget one level deeper, so an oversized partition spills
// again with a re-salted hash). The run is always released.
func emitPartitionGroups(gt *groupTable, run SpillRun, emit func(*group) error) error {
	defer run.Release()
	if err := run.Finish(); err != nil {
		return err
	}
	rd, err := run.Open()
	if err != nil {
		return err
	}
	sub := newGroupTable(gt.keyIdx, gt.aggIdx, gt.specs, gt.ring)
	sub.mergePartials = gt.mergePartials
	sub.ctx = gt.ctx
	if gt.mem != nil && gt.level+1 < maxSpillDepth {
		sub.mem, sub.spill, sub.level = gt.mem, gt.spill, gt.level+1
	}
	for {
		if err := ctxErr(gt.ctx); err != nil {
			rd.Close()
			sub.discard()
			return err
		}
		b, err := rd.Next()
		if err != nil {
			rd.Close()
			sub.discard()
			return err
		}
		if b == nil {
			break
		}
		if err := sub.ingest(b); err != nil {
			rd.Close()
			sub.discard()
			return err
		}
	}
	if err := rd.Close(); err != nil {
		sub.discard()
		return err
	}
	return emitGroups(sub, emit)
}

// ---------------------------------------------------------------------------
// Pre-shuffle partial aggregation

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
// per aggregate, folded in via absorb. Spilling works unchanged — routed
// rows are partial rows, and the recursion inherits mergePartials.
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
		if grp == nil {
			gt.route(ri)
			continue
		}
		for i := range gt.specs {
			count := b.Cols[nk+2*i].Value(ri)
			payload := b.Cols[nk+2*i+1].Value(ri)
			if err := grp.accs[i].absorb(count.I, payload, gt.ring); err != nil {
				return err
			}
		}
	}
	return gt.flushRouted(b)
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
		child: child, e: e, schema: ShufflePartialSchema(g),
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
	gt := newGroupTable(p.keyIdx, p.aggIdx, p.specs, p.ring)
	if p.e != nil && p.e.Mem != nil {
		gt.mem, gt.spill = p.e.Mem, p.e.Spill
	}
	if p.e != nil {
		gt.ctx = p.e.Ctx
	}
	for {
		b, err := p.child.Next()
		if err != nil {
			gt.discard()
			return err
		}
		if b == nil {
			break
		}
		if err := gt.addBatch(b); err != nil {
			gt.discard()
			return err
		}
	}
	p.out = make([][]Value, 0, len(gt.order))
	return emitGroups(gt, func(grp *group) error {
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
		return nil
	})
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

// ---------------------------------------------------------------------------
// Hash-join grace spilling

// joinPartitioner hash-routes batches into spill partitions by one key
// column's canonical cell key, creating runs lazily.
type joinPartitioner struct {
	spill  SpillFactory
	keyCol int
	level  int
	parts  []SpillRun
	sel    [][]int32
	keyBuf []byte
}

func newJoinPartitioner(spill SpillFactory, keyCol, level int) *joinPartitioner {
	return &joinPartitioner{
		spill: spill, keyCol: keyCol, level: level,
		parts: make([]SpillRun, spillPartitions),
		sel:   make([][]int32, spillPartitions),
	}
}

func (jp *joinPartitioner) add(b *Batch) error {
	col := &b.Cols[jp.keyCol]
	var err error
	for ri := 0; ri < b.N; ri++ {
		jp.keyBuf, err = appendCellKey(jp.keyBuf[:0], col, ri)
		if err != nil {
			return err
		}
		p := spillPartition(jp.keyBuf, jp.level)
		jp.sel[p] = append(jp.sel[p], int32(ri))
	}
	for p, sel := range jp.sel {
		if len(sel) == 0 {
			continue
		}
		if jp.parts[p] == nil {
			run, err := jp.spill.NewRun()
			if err != nil {
				return err
			}
			jp.parts[p] = run
			addSpillPartition()
		}
		if err := jp.parts[p].Append(b.Gather(sel)); err != nil {
			return err
		}
		jp.sel[p] = sel[:0]
	}
	return nil
}

func (jp *joinPartitioner) discard() {
	releaseRuns(jp.parts)
	jp.parts = nil
}

// spilledBuild is the partitioned form of a hash-join build side that did
// not fit its budget.
type spilledBuild struct {
	parts []SpillRun
	level int
}

// buildJoinIndexMem is buildJoinIndex under a memory budget: retained
// batches reserve their estimated footprint (plus ref overhead), and the
// first failed reservation flips the build into partition mode — already
// retained batches are re-routed to spill runs, the reservation is
// returned, and the rest of the build stream partitions straight to disk.
// Exactly one of idx and spilled is non-nil on success; reserved is the
// reservation backing idx, released by the caller when done probing.
func buildJoinIndexMem(right Operator, hashR int, mem *MemAccountant, fac SpillFactory) (idx *joinIndex, spilled *spilledBuild, reserved int64, err error) {
	idx = &joinIndex{schema: right.Schema(), refs: make(map[string][]buildRef)}
	if err := right.Open(); err != nil {
		right.Close()
		return nil, nil, 0, err
	}
	var keyBuf []byte
	var jp *joinPartitioner
	fail := func(e error) (*joinIndex, *spilledBuild, int64, error) {
		right.Close()
		mem.Release(reserved)
		if jp != nil {
			jp.discard()
		}
		return nil, nil, 0, e
	}
	for {
		b, err := right.Next()
		if err != nil {
			return fail(err)
		}
		if b == nil {
			break
		}
		if jp == nil {
			cost := batchMemBytes(b) + 32*int64(b.N)
			if mem.Reserve(cost) {
				reserved += cost
				bi := int32(len(idx.batches))
				idx.batches = append(idx.batches, b)
				col := &b.Cols[hashR]
				for ri := 0; ri < b.N; ri++ {
					keyBuf, err = appendCellKey(keyBuf[:0], col, ri)
					if err != nil {
						return fail(err)
					}
					idx.refs[string(keyBuf)] = append(idx.refs[string(keyBuf)], buildRef{bi, int32(ri)})
				}
				continue
			}
			if fac == nil {
				return fail(fmt.Errorf("exec: memory budget exhausted (%d of %d bytes) and no spill factory configured",
					mem.Used(), mem.Budget()))
			}
			addSpillEvent()
			jp = newJoinPartitioner(fac, hashR, 0)
			for _, rb := range idx.batches {
				if err := jp.add(rb); err != nil {
					return fail(err)
				}
			}
			idx.batches, idx.refs = nil, nil
			mem.Release(reserved)
			reserved = 0
		}
		if err := jp.add(b); err != nil {
			return fail(err)
		}
	}
	if err := right.Close(); err != nil {
		mem.Release(reserved)
		if jp != nil {
			jp.discard()
		}
		return nil, nil, 0, err
	}
	if jp != nil {
		return nil, &spilledBuild{parts: jp.parts, level: 0}, 0, nil
	}
	idx.uniform = make([]ColKind, len(idx.schema))
	for ci := range idx.uniform {
		idx.uniform[ci] = uniformKind(idx.batches, ci)
	}
	return idx, nil, reserved, nil
}

// buildRunIndex builds an in-memory joinIndex from one spilled build
// partition. Below the depth cap each batch reserves its footprint; a
// failed reservation aborts cleanly and reports refit=true so the caller
// re-partitions one level deeper (the run stays intact on disk and can be
// re-read). At the cap the partition builds unbudgeted — the skew fallback
// for a single giant key.
func buildRunIndex(ctx context.Context, run SpillRun, schema []algebra.Attr, hashR int, mem *MemAccountant, level int) (idx *joinIndex, reserved int64, refit bool, err error) {
	if err := run.Finish(); err != nil {
		return nil, 0, false, err
	}
	rd, err := run.Open()
	if err != nil {
		return nil, 0, false, err
	}
	idx = &joinIndex{schema: schema, refs: make(map[string][]buildRef)}
	unbudgeted := level+1 >= maxSpillDepth
	var keyBuf []byte
	for {
		if err := ctxErr(ctx); err != nil {
			rd.Close()
			mem.Release(reserved)
			return nil, 0, false, err
		}
		b, err := rd.Next()
		if err != nil {
			rd.Close()
			mem.Release(reserved)
			return nil, 0, false, err
		}
		if b == nil {
			break
		}
		if !unbudgeted {
			cost := batchMemBytes(b) + 32*int64(b.N)
			if !mem.Reserve(cost) {
				rd.Close()
				mem.Release(reserved)
				return nil, 0, true, nil
			}
			reserved += cost
		}
		bi := int32(len(idx.batches))
		idx.batches = append(idx.batches, b)
		col := &b.Cols[hashR]
		for ri := 0; ri < b.N; ri++ {
			keyBuf, err = appendCellKey(keyBuf[:0], col, ri)
			if err != nil {
				rd.Close()
				mem.Release(reserved)
				return nil, 0, false, err
			}
			idx.refs[string(keyBuf)] = append(idx.refs[string(keyBuf)], buildRef{bi, int32(ri)})
		}
	}
	if err := rd.Close(); err != nil {
		mem.Release(reserved)
		return nil, 0, false, err
	}
	idx.uniform = make([]ColKind, len(idx.schema))
	for ci := range idx.uniform {
		idx.uniform[ci] = uniformKind(idx.batches, ci)
	}
	return idx, reserved, false, nil
}

// repartitionRun splits one run's batches into spillPartitions fresh runs by
// the key column's hash at the given level, then releases the source run.
func repartitionRun(ctx context.Context, run SpillRun, keyCol, level int, fac SpillFactory) ([]SpillRun, error) {
	defer run.Release()
	if err := run.Finish(); err != nil {
		return nil, err
	}
	rd, err := run.Open()
	if err != nil {
		return nil, err
	}
	jp := newJoinPartitioner(fac, keyCol, level)
	for {
		if err := ctxErr(ctx); err != nil {
			rd.Close()
			jp.discard()
			return nil, err
		}
		b, err := rd.Next()
		if err != nil {
			rd.Close()
			jp.discard()
			return nil, err
		}
		if b == nil {
			break
		}
		if err := jp.add(b); err != nil {
			rd.Close()
			jp.discard()
			return nil, err
		}
	}
	if err := rd.Close(); err != nil {
		jp.discard()
		return nil, err
	}
	return jp.parts, nil
}

// zipPairs pairs build and probe partitions positionally. A partition with
// no build rows joins to nothing (its probe run is released unread) and one
// with no probe rows produces nothing (its build run is released unread).
func zipPairs(build, probe []SpillRun, level int) []gracePair {
	var pairs []gracePair
	for p := range build {
		bp, pp := build[p], probe[p]
		switch {
		case bp == nil && pp == nil:
		case bp == nil:
			pp.Release()
		case pp == nil:
			bp.Release()
		default:
			pairs = append(pairs, gracePair{build: bp, probe: pp, level: level})
		}
	}
	return pairs
}

// gracePair is one co-partitioned (build, probe) run pair awaiting its
// in-memory join pass.
type gracePair struct {
	build, probe SpillRun
	level        int
}

// graceJoin drives the partitioned phase of a budgeted hash join: the pair
// worklist, the inner in-memory join streaming the current pair, and the
// reservation backing its index. Matching keys always share a partition
// (both sides hash the same canonical key bytes at the same level), so
// joining pairs independently produces exactly the unpartitioned matches,
// in partition-major order.
type graceJoin struct {
	j           *hashJoinOp
	probeSchema []algebra.Attr
	buildSchema []algebra.Attr
	pairs       []gracePair
	cur         *hashJoinOp
	curReserved int64
}

// openBudgeted is hashJoinOp.Open's build phase under a memory budget: the
// build side is indexed under reservation, and if it spills the probe side
// is co-partitioned and the join switches to grace mode.
func (j *hashJoinOp) openBudgeted() error {
	idx, spilled, reserved, err := buildJoinIndexMem(j.right, j.hashR, j.mem, j.spillFac)
	if err != nil {
		return err
	}
	if spilled == nil {
		j.idx, j.idxReserved = idx, reserved
		return nil
	}
	g := &graceJoin{j: j, probeSchema: j.left.Schema(), buildSchema: j.right.Schema()}
	jp := newJoinPartitioner(j.spillFac, j.hashL, spilled.level)
	for {
		b, err := j.left.Next()
		if err != nil {
			jp.discard()
			releaseRuns(spilled.parts)
			return err
		}
		if b == nil {
			break
		}
		if err := jp.add(b); err != nil {
			jp.discard()
			releaseRuns(spilled.parts)
			return err
		}
	}
	g.pairs = zipPairs(spilled.parts, jp.parts, spilled.level)
	j.grace = g
	return nil
}

// next streams the grace join: batches of the current pair's inner join,
// advancing through the worklist as pairs drain. A pair whose build
// partition still exceeds the budget is split one level deeper and its
// sub-pairs prepended, preserving partition order.
func (g *graceJoin) next() (*Batch, error) {
	for {
		if g.cur != nil {
			b, err := g.cur.Next()
			if err != nil {
				return nil, err
			}
			if b != nil {
				return b, nil
			}
			if err := g.closePair(); err != nil {
				return nil, err
			}
		}
		if len(g.pairs) == 0 {
			return nil, nil
		}
		pair := g.pairs[0]
		g.pairs = g.pairs[1:]
		if err := g.openPair(pair); err != nil {
			return nil, err
		}
	}
}

func (g *graceJoin) openPair(pair gracePair) error {
	j := g.j
	idx, reserved, refit, err := buildRunIndex(j.ctx, pair.build, g.buildSchema, j.hashR, j.mem, pair.level)
	if err != nil {
		pair.probe.Release()
		return err
	}
	if refit {
		buildParts, err := repartitionRun(j.ctx, pair.build, j.hashR, pair.level+1, j.spillFac)
		if err != nil {
			pair.probe.Release()
			return err
		}
		probeParts, err := repartitionRun(j.ctx, pair.probe, j.hashL, pair.level+1, j.spillFac)
		if err != nil {
			releaseRuns(buildParts)
			return err
		}
		g.pairs = append(zipPairs(buildParts, probeParts, pair.level+1), g.pairs...)
		return nil
	}
	pair.build.Release()
	probe := newSpillScan(g.probeSchema, pair.probe)
	probe.ctx = j.ctx
	inner := &hashJoinOp{
		left:   probe,
		schema: j.schema, hashL: j.hashL, hashR: j.hashR,
		batch: j.batch, leftWidth: j.leftWidth,
		idx: idx, shared: true, ctx: j.ctx,
	}
	if err := inner.Open(); err != nil {
		j.mem.Release(reserved)
		return err
	}
	g.cur, g.curReserved = inner, reserved
	return nil
}

// closePair closes the drained inner join (releasing its probe run) and
// returns its index reservation.
func (g *graceJoin) closePair() error {
	err := g.cur.Close()
	g.cur = nil
	g.j.mem.Release(g.curReserved)
	g.curReserved = 0
	return err
}

// discard releases everything the grace join still holds; safe after errors
// and on early Close.
func (g *graceJoin) discard() {
	if g.cur != nil {
		g.cur.Close()
		g.cur = nil
	}
	g.j.mem.Release(g.curReserved)
	g.curReserved = 0
	for _, p := range g.pairs {
		p.build.Release()
		p.probe.Release()
	}
	g.pairs = nil
}

// spillScan streams a spill run as an operator: the probe side of a grace
// pair's inner join. Close releases the run.
type spillScan struct {
	schema []algebra.Attr
	run    SpillRun
	rd     SpillReader
	ctx    context.Context // run cancellation, probed per batch
}

func newSpillScan(schema []algebra.Attr, run SpillRun) *spillScan {
	return &spillScan{schema: schema, run: run}
}

func (s *spillScan) Schema() []algebra.Attr { return s.schema }

func (s *spillScan) Open() error {
	if err := s.run.Finish(); err != nil {
		return err
	}
	rd, err := s.run.Open()
	if err != nil {
		return err
	}
	s.rd = rd
	return nil
}

func (s *spillScan) Next() (*Batch, error) {
	if err := ctxErr(s.ctx); err != nil {
		return nil, err
	}
	if s.rd == nil {
		return nil, nil
	}
	return s.rd.Next()
}

func (s *spillScan) Close() error {
	var err error
	if s.rd != nil {
		err = s.rd.Close()
		s.rd = nil
	}
	if rerr := s.run.Release(); err == nil {
		err = rerr
	}
	return err
}
