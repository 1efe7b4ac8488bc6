package exec

import (
	"bytes"
	"context"
	"fmt"
	"math/big"

	"mpq/internal/algebra"
	"mpq/internal/crypto"
	"mpq/internal/sql"
)

// ---------------------------------------------------------------------------
// Projection

// projectOp forwards a subset (or reordering) of its child's columns. Under
// the columnar layout this is pure pointer shuffling: the output batch
// shares the selected column vectors, so projection costs nothing per row.
type projectOp struct {
	child   Operator
	indices []int
	schema  []algebra.Attr
}

func (p *projectOp) Schema() []algebra.Attr { return p.schema }
func (p *projectOp) Open() error            { return p.child.Open() }
func (p *projectOp) Close() error           { return p.child.Close() }

func (p *projectOp) Next() (*Batch, error) {
	b, err := p.child.Next()
	if b == nil || err != nil {
		return nil, err
	}
	out := &Batch{Cols: make([]Column, len(p.indices)), N: b.N}
	for j, ix := range p.indices {
		out.Cols[j] = b.Cols[ix]
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Selection

// filterOp evaluates its compiled columnar predicate against each batch: the
// predicate narrows a selection vector over the typed column vectors, and
// survivors are gathered into a fresh batch (or the input batch is forwarded
// untouched when every row passes).
type filterOp struct {
	child Operator
	pred  colPred
	sel   []int32 // reused identity selection buffer
}

func (f *filterOp) Schema() []algebra.Attr { return f.child.Schema() }
func (f *filterOp) Open() error            { return f.child.Open() }
func (f *filterOp) Close() error           { return f.child.Close() }

func (f *filterOp) Next() (*Batch, error) {
	for {
		b, err := f.child.Next()
		if b == nil || err != nil {
			return nil, err
		}
		if cap(f.sel) < b.N {
			f.sel = make([]int32, b.N)
		}
		sel := f.sel[:b.N]
		for i := range sel {
			sel[i] = int32(i)
		}
		sel, err = f.pred(b, sel)
		if err != nil {
			return nil, err
		}
		switch len(sel) {
		case 0:
			continue
		case b.N:
			return b, nil // every row passed: forward the batch as-is
		default:
			return b.Gather(sel), nil
		}
	}
}

// ---------------------------------------------------------------------------
// Cartesian product

type productOp struct {
	left   Operator
	right  Operator
	schema []algebra.Attr
	batch  int

	rightRows [][]Value
	curRows   [][]Value
	li, ri    int
}

func (p *productOp) Schema() []algebra.Attr { return p.schema }

func (p *productOp) Open() error {
	if err := p.left.Open(); err != nil {
		return err
	}
	t, err := Drain(p.right)
	if err != nil {
		return err
	}
	p.rightRows = t.Rows
	p.curRows, p.li, p.ri = nil, 0, 0
	return nil
}

func (p *productOp) Close() error { return p.left.Close() }

func (p *productOp) Next() (*Batch, error) {
	if len(p.rightRows) == 0 {
		// The product is empty, but the probe side must still be drained:
		// under the streaming runtime its producer may be another subject's
		// fragment worker, which can only complete its stream (and ledger
		// entry) once every batch is consumed.
		for {
			b, err := p.left.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				return nil, nil
			}
		}
	}
	out := make([][]Value, 0, p.batch)
	for {
		if p.curRows == nil {
			b, err := p.left.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			p.curRows, p.li, p.ri = b.Rows(), 0, 0
		}
		out = append(out, concatRows(p.curRows[p.li], p.rightRows[p.ri]))
		p.ri++
		if p.ri == len(p.rightRows) {
			p.ri = 0
			p.li++
			if p.li == len(p.curRows) {
				p.curRows = nil
			}
		}
		if len(out) == p.batch {
			return NewBatchFromRows(out, len(p.schema))
		}
	}
	if len(out) > 0 {
		return NewBatchFromRows(out, len(p.schema))
	}
	return nil, nil
}

func concatRows(a, b []Value) []Value {
	row := make([]Value, 0, len(a)+len(b))
	return append(append(row, a...), b...)
}

// ---------------------------------------------------------------------------
// Hash join

// buildRef addresses one build-side row: batch index, row index.
type buildRef struct{ b, r int32 }

// joinIndex is the build side of a hash join in columnar form: the build
// child's batches retained as delivered, plus, per join key, the refs of the
// matching build rows in build-row order. The index is built straight from
// the column vectors (appendCellKey, no row materialization) and is
// immutable once built, so a grace-hash partition pair hands its index to a
// fresh probe operator read-only.
type joinIndex struct {
	schema  []algebra.Attr
	batches []*Batch
	refs    map[string][]buildRef
	// uniform caches, per build column, the layout shared by every batch
	// (scheme and key id included for cipher columns) — ColAny when the
	// batches disagree, so gathers take the generic path. Computed once at
	// build; the probe hot path never rescans the batches for it.
	uniform []ColKind
}

// buildJoinIndex drains the build child and indexes it by the hash column;
// refs land in build-row order.
func buildJoinIndex(right Operator, hashR int) (*joinIndex, error) {
	idx := &joinIndex{schema: right.Schema(), refs: make(map[string][]buildRef)}
	if err := right.Open(); err != nil {
		right.Close()
		return nil, err
	}
	var keyBuf []byte
	for {
		b, err := right.Next()
		if err != nil {
			right.Close()
			return nil, err
		}
		if b == nil {
			break
		}
		bi := int32(len(idx.batches))
		idx.batches = append(idx.batches, b)
		col := &b.Cols[hashR]
		for ri := 0; ri < b.N; ri++ {
			keyBuf, err = appendCellKey(keyBuf[:0], col, ri)
			if err != nil {
				right.Close()
				return nil, err
			}
			idx.refs[string(keyBuf)] = append(idx.refs[string(keyBuf)], buildRef{bi, int32(ri)})
		}
	}
	if err := right.Close(); err != nil {
		return nil, err
	}
	idx.uniform = make([]ColKind, len(idx.schema))
	for ci := range idx.uniform {
		idx.uniform[ci] = uniformKind(idx.batches, ci)
	}
	return idx, nil
}

// uniformKind returns the layout every batch holds column ci in, or ColAny
// when they disagree (mixed kinds, cipher columns under different
// schemes/keys, or dictionary columns over different dictionaries — codes
// are only comparable within one dictionary identity).
func uniformKind(batches []*Batch, ci int) ColKind {
	if len(batches) == 0 {
		return ColAny
	}
	first := &batches[0].Cols[ci]
	for bi := range batches {
		c := &batches[bi].Cols[ci]
		if c.Kind != first.Kind {
			return ColAny
		}
		switch c.Kind {
		case ColCipherBytes:
			if c.Scheme != first.Scheme || c.KeyID != first.KeyID {
				return ColAny
			}
		case ColDict:
			if DictID(c.Dict) != DictID(first.Dict) {
				return ColAny
			}
		case ColCipherDict:
			if cipherDictID(c.CipherDict) != cipherDictID(first.CipherDict) ||
				c.Scheme != first.Scheme || c.KeyID != first.KeyID {
				return ColAny
			}
		}
	}
	return first.Kind
}

// gatherCol assembles the output column for build-side column ci over the
// matched refs, in match order. When every source batch holds the column in
// one typed layout (x.uniform, precomputed at index build) the cells are
// gathered vector to vector; otherwise they are materialized and
// re-columnarized (NewColumn picks the tightest layout, exactly as
// transposed rows would).
func (x *joinIndex) gatherCol(ci int, refs []buildRef) Column {
	kind := x.uniform[ci]
	n := len(refs)
	if kind != ColAny {
		out := Column{Kind: kind}
		switch kind {
		case ColInt:
			out.Ints = make([]int64, n)
			for o, rf := range refs {
				out.Ints[o] = x.batches[rf.b].Cols[ci].Ints[rf.r]
			}
		case ColFloat:
			out.Floats = make([]float64, n)
			for o, rf := range refs {
				out.Floats[o] = x.batches[rf.b].Cols[ci].Floats[rf.r]
			}
		case ColStr:
			out.Strs = make([]string, n)
			for o, rf := range refs {
				out.Strs[o] = x.batches[rf.b].Cols[ci].Strs[rf.r]
			}
		case ColCipherBytes:
			src0 := &x.batches[0].Cols[ci]
			out.Scheme, out.KeyID = src0.Scheme, src0.KeyID
			out.Bytes = make([][]byte, n)
			out.Plains = make([]Kind, n)
			for o, rf := range refs {
				c := &x.batches[rf.b].Cols[ci]
				out.Bytes[o] = c.Bytes[rf.r]
				out.Plains[o] = c.Plains[rf.r]
			}
		case ColDict, ColCipherDict:
			// Uniform dict layout implies one shared dictionary (uniformKind
			// checked identity), so the gather copies codes only.
			src0 := &x.batches[0].Cols[ci]
			out.Dict, out.CipherDict = src0.Dict, src0.CipherDict
			out.Scheme, out.KeyID = src0.Scheme, src0.KeyID
			out.Codes = make([]uint32, n)
			for o, rf := range refs {
				out.Codes[o] = x.batches[rf.b].Cols[ci].Codes[rf.r]
			}
		}
		for o, rf := range refs {
			if x.batches[rf.b].Cols[ci].IsNull(int(rf.r)) {
				out.setNull(o, n)
			}
		}
		return out
	}
	buf := make([]Value, n)
	for o, rf := range refs {
		buf[o] = x.batches[rf.b].Cols[ci].Value(int(rf.r))
	}
	return NewColumn(buf)
}

// hashJoinOp indexes its build input, then probes it batch by batch: probe
// keys are computed from the hash column's vector, the index is built
// straight from the build child's column vectors (no row materialization
// anywhere on the build path), and the output batch is assembled columnar —
// probe-side columns typed-gathered by the match selection, build-side
// columns typed-gathered through the index refs. Residual conjuncts of the
// join condition run in a filterOp above the join. Output is emitted in
// at-most-batch-sized windows, so a skewed many-to-many join never
// materializes its whole fanout at once.
type hashJoinOp struct {
	left, right  Operator
	schema       []algebra.Attr
	hashL, hashR int
	batch        int
	leftWidth    int

	idx    *joinIndex
	shared bool // idx was pre-built and injected; Open must not rebuild it

	// Out-of-core state (grace-hash spilling). With mem set, the build side
	// is indexed under reservation (idxReserved, returned at Close); if it
	// does not fit, both sides co-partition to spill runs and grace drives
	// the pair-by-pair partitioned join instead of the resident cursor.
	mem         *MemAccountant
	spillFac    SpillFactory
	idxReserved int64
	grace       *graceJoin
	// ctx cancels spill read-back loops (grace pairs replay whole runs, so
	// without it a cancelled run would finish the current pair first).
	ctx context.Context

	// Probe cursor: the current probe batch, the next probe row, and the
	// unconsumed matches of the last keyed row.
	cur        *Batch
	li         int
	curMatches []buildRef
	matchIdx   int

	selBuf   []int32    // reused (probe row, build row) pair buffers
	matchBuf []buildRef //
	keyBuf   []byte

	// Dictionary probe memo: when the probe key column is dict-encoded, the
	// index lookup for each dictionary entry is cached per code, so repeated
	// probe keys encode and hash once per distinct value. Valid for one
	// dictionary identity at a time.
	probeDict       *string
	probeCipherDict *[]byte
	refsByCode      [][]buildRef
	refsSeen        []bool
}

func (j *hashJoinOp) Schema() []algebra.Attr { return j.schema }

func (j *hashJoinOp) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	j.grace = nil
	if !j.shared {
		if j.mem != nil {
			if err := j.openBudgeted(); err != nil {
				return err
			}
		} else {
			idx, err := buildJoinIndex(j.right, j.hashR)
			if err != nil {
				return err
			}
			j.idx = idx
		}
	}
	j.cur, j.li, j.curMatches, j.matchIdx = nil, 0, nil, 0
	return nil
}

func (j *hashJoinOp) Close() error {
	if j.grace != nil {
		j.grace.discard()
		j.grace = nil
	}
	if j.mem != nil && j.idxReserved > 0 {
		j.mem.Release(j.idxReserved)
		j.idxReserved = 0
		j.idx = nil
	}
	return j.left.Close()
}

func (j *hashJoinOp) Next() (*Batch, error) {
	if j.grace != nil {
		return j.grace.next()
	}
	for {
		if j.cur == nil {
			b, err := j.left.Next()
			if b == nil || err != nil {
				return nil, err
			}
			j.cur, j.li, j.curMatches, j.matchIdx = b, 0, nil, 0
		}
		// Collect up to batch (probe row, build row) pairs from the
		// current probe batch, in probe order.
		probeSel := j.selBuf[:0]
		matches := j.matchBuf[:0]
		for {
			for j.matchIdx < len(j.curMatches) && len(probeSel) < j.batch {
				probeSel = append(probeSel, int32(j.li-1))
				matches = append(matches, j.curMatches[j.matchIdx])
				j.matchIdx++
			}
			if len(probeSel) == j.batch || j.li == j.cur.N {
				break
			}
			refs, err := j.probeRefs(&j.cur.Cols[j.hashL], j.li)
			if err != nil {
				return nil, err
			}
			j.curMatches, j.matchIdx = refs, 0
			j.li++
		}
		cur := j.cur
		if j.li == cur.N && j.matchIdx == len(j.curMatches) {
			j.cur = nil // probe batch exhausted; fetch the next one
		}
		j.selBuf, j.matchBuf = probeSel, matches
		if len(probeSel) == 0 {
			continue
		}
		return j.assemble(cur, probeSel, matches), nil
	}
}

// probeRefs returns the build refs matching probe row ri of the key column.
// Dict-encoded key columns answer from the per-code memo after one canonical
// lookup per dictionary entry; every other layout (and NULL dict cells,
// whose code slot is a sentinel) encodes the canonical key per row.
func (j *hashJoinOp) probeRefs(col *Column, ri int) ([]buildRef, error) {
	switch {
	case col.Kind == ColDict && !col.IsNull(ri):
		if id := DictID(col.Dict); j.probeDict != id {
			j.probeDict, j.probeCipherDict = id, nil
			j.resetProbeMemo(len(col.Dict))
		}
	case col.Kind == ColCipherDict && !col.IsNull(ri) &&
		(col.Scheme == algebra.SchemeDeterministic || col.Scheme == algebra.SchemeOPE):
		if id := cipherDictID(col.CipherDict); j.probeCipherDict != id {
			j.probeCipherDict, j.probeDict = id, nil
			j.resetProbeMemo(len(col.CipherDict))
		}
	default:
		var err error
		j.keyBuf, err = appendCellKey(j.keyBuf[:0], col, ri)
		if err != nil {
			return nil, err
		}
		return j.idx.refs[string(j.keyBuf)], nil
	}
	code := col.Codes[ri]
	if !j.refsSeen[code] {
		var err error
		j.keyBuf, err = appendCellKey(j.keyBuf[:0], col, ri)
		if err != nil {
			return nil, err
		}
		j.refsByCode[code] = j.idx.refs[string(j.keyBuf)]
		j.refsSeen[code] = true
	}
	return j.refsByCode[code], nil
}

// resetProbeMemo sizes the per-code memo for a new dictionary, reusing the
// previous dictionary's storage when it fits.
func (j *hashJoinOp) resetProbeMemo(n int) {
	if cap(j.refsByCode) < n {
		j.refsByCode = make([][]buildRef, n)
		j.refsSeen = make([]bool, n)
		return
	}
	j.refsByCode = j.refsByCode[:n]
	j.refsSeen = j.refsSeen[:n]
	for i := range j.refsSeen {
		j.refsByCode[i] = nil
		j.refsSeen[i] = false
	}
}

// assemble builds the output batch for one window of (probe row, build row)
// pairs, all drawn from probe batch b: probe columns typed-gathered, build
// columns gathered through the index.
func (j *hashJoinOp) assemble(b *Batch, probeSel []int32, matches []buildRef) *Batch {
	out := &Batch{Cols: make([]Column, len(j.schema)), N: len(probeSel)}
	for ci := 0; ci < j.leftWidth; ci++ {
		out.Cols[ci] = b.Cols[ci].gather(probeSel)
	}
	for ci := j.leftWidth; ci < len(j.schema); ci++ {
		out.Cols[ci] = j.idx.gatherCol(ci-j.leftWidth, matches)
	}
	return out
}

// ---------------------------------------------------------------------------
// Group by

// ringFn resolves a key ring by id. Each operator carries its own memoized
// instance (ringCache), so no two pipelines share a mutable cache.
type ringFn func(keyID string) (*crypto.KeyRing, error)

// ringCache returns a ringFn memoizing Keys.Get in a private map.
func (e *Executor) ringCache() ringFn {
	rings := make(map[string]*crypto.KeyRing)
	return func(keyID string) (*crypto.KeyRing, error) {
		if r, ok := rings[keyID]; ok {
			return r, nil
		}
		r, err := e.Keys.Get(keyID)
		if err != nil {
			return nil, err
		}
		rings[keyID] = r
		return r, nil
	}
}

// pheKey resolves the Paillier key of a key id through ring.
func pheKey(ring ringFn, keyID string) (*crypto.Paillier, error) {
	r, err := ring(keyID)
	if err != nil {
		return nil, err
	}
	return r.Paillier()
}

// groupAcc is the per-group accumulator of one aggregate: it folds cells in
// row order, so float sums do not depend on the batch size.
// MIN/MAX over OPE ciphertext-byte columns additionally track the running
// extremes as payload references (byteMode) — ciphertext order is byte
// order, so no Cipher is materialized per candidate.
type groupAcc struct {
	fn    sql.AggFunc
	count int64
	sum   float64
	min   Value
	max   Value
	phe   *big.Int
	pheC  *Cipher

	// OPE byte fast path: valid while byteMode is set; the first candidate
	// from any other layout materializes min/max and clears it.
	byteMode           bool
	minB, maxB         []byte
	minPlain, maxPlain Kind
	minKey, maxKey     string
}

func (acc *groupAcc) add(v Value, ring ringFn) error {
	acc.count++
	switch acc.fn {
	case sql.AggCount:
		return nil
	case sql.AggSum, sql.AggAvg:
		if v.IsCipher() {
			if v.C.Scheme != algebra.SchemePaillier {
				return fmt.Errorf("exec: %s over %s ciphertext", acc.fn, v.C.Scheme)
			}
			pk, err := pheKey(ring, v.C.KeyID)
			if err != nil {
				return err
			}
			if acc.phe == nil {
				// Copy: the accumulator owns its sum so AddTo can
				// accumulate in place without a per-row allocation.
				acc.phe = new(big.Int).Set(v.C.Phe)
				acc.pheC = v.C
			} else {
				pk.AddTo(acc.phe, v.C.Phe)
			}
			return nil
		}
		f, err := v.AsFloat()
		if err != nil {
			return err
		}
		acc.sum += f
		return nil
	case sql.AggMin, sql.AggMax:
		if acc.count == 1 {
			acc.min, acc.max = v, v
			return nil
		}
		if acc.byteMode {
			acc.materializeMinMax()
		}
		c, err := compareForSort(v, acc.min)
		if err != nil {
			return err
		}
		if c < 0 {
			acc.min = v
		}
		c, err = compareForSort(v, acc.max)
		if err != nil {
			return err
		}
		if c > 0 {
			acc.max = v
		}
		return nil
	}
	return fmt.Errorf("exec: unknown aggregate %q", acc.fn)
}

// addFast accumulates one cell of a typed column without materializing a
// Value: the monomorphic path for COUNT, for SUM/AVG over int64/float64
// vectors, and for MIN/MAX over OPE ciphertext-byte vectors (compared as
// raw payload bytes — OPE order is byte order, exactly compareForSort's
// rule). It reports whether it handled the cell; callers fall back to add
// (via Column.Value) otherwise.
func (acc *groupAcc) addFast(col *Column, ri int) bool {
	switch acc.fn {
	case sql.AggCount:
		acc.count++
		return true
	case sql.AggSum, sql.AggAvg:
		if col.IsNull(ri) {
			return false
		}
		switch col.Kind {
		case ColInt:
			acc.count++
			acc.sum += float64(col.Ints[ri])
			return true
		case ColFloat:
			acc.count++
			acc.sum += col.Floats[ri]
			return true
		}
		return false
	case sql.AggMin, sql.AggMax:
		if col.Kind != ColCipherBytes || col.Scheme != algebra.SchemeOPE {
			return false
		}
		if acc.count == 0 {
			acc.count++
			acc.byteMode = true
			acc.minB, acc.maxB = col.Bytes[ri], col.Bytes[ri]
			acc.minPlain, acc.maxPlain = col.Plains[ri], col.Plains[ri]
			acc.minKey, acc.maxKey = col.KeyID, col.KeyID
			return true
		}
		if !acc.byteMode {
			return false // an earlier candidate forced Value mode
		}
		acc.count++
		b := col.Bytes[ri]
		if bytes.Compare(b, acc.minB) < 0 {
			acc.minB, acc.minPlain, acc.minKey = b, col.Plains[ri], col.KeyID
		}
		if bytes.Compare(b, acc.maxB) > 0 {
			acc.maxB, acc.maxPlain, acc.maxKey = b, col.Plains[ri], col.KeyID
		}
		return true
	}
	return false
}

// materializeMinMax converts the OPE byte-reference extremes into the
// Cipher values the Value path (and the final result) carries.
func (acc *groupAcc) materializeMinMax() {
	acc.min = Enc(&Cipher{Scheme: algebra.SchemeOPE, KeyID: acc.minKey, Data: acc.minB, Plain: acc.minPlain})
	acc.max = Enc(&Cipher{Scheme: algebra.SchemeOPE, KeyID: acc.maxKey, Data: acc.maxB, Plain: acc.maxPlain})
	acc.byteMode = false
}

func (acc *groupAcc) result() (Value, error) {
	if acc.byteMode {
		acc.materializeMinMax()
	}
	switch acc.fn {
	case sql.AggCount:
		return Int(acc.count), nil
	case sql.AggSum:
		if acc.phe != nil {
			return Enc(&Cipher{Scheme: algebra.SchemePaillier, KeyID: acc.pheC.KeyID, Phe: acc.phe, Div: 1, Plain: acc.pheC.Plain}), nil
		}
		return Float(acc.sum), nil
	case sql.AggAvg:
		if acc.phe != nil {
			return Enc(&Cipher{Scheme: algebra.SchemePaillier, KeyID: acc.pheC.KeyID, Phe: acc.phe, Div: acc.count, Plain: KFloat}), nil
		}
		if acc.count == 0 {
			return Null(), nil
		}
		return Float(acc.sum / float64(acc.count)), nil
	case sql.AggMin:
		return acc.min, nil
	case sql.AggMax:
		return acc.max, nil
	}
	return Value{}, fmt.Errorf("exec: unknown aggregate %q", acc.fn)
}

// group is one aggregation group: the key values pinned from its first row
// and one accumulator per aggregate.
type group struct {
	keyVals []Value
	accs    []*groupAcc
}

// groupTable hash-aggregates batches: the core of the group-by build, of
// its spill partitions, and of pre-shuffle partial aggregation. Group keys
// are encoded straight from the column vectors (appendCellKey mirrors
// groupKey byte for byte); groups are kept in first-seen order.
type groupTable struct {
	keyIdx []int
	aggIdx []int
	specs  []algebra.AggSpec
	ring   ringFn
	groups map[string]*group
	order  []string
	keyBuf []byte

	// Dictionary fast path (single dict-encoded key column): groups resolved
	// by code instead of encoding and hashing the canonical key per row. The
	// memo maps each dictionary entry to its group after one canonical
	// registration, so first-seen order and the hk strings stay
	// byte-identical to the generic path. Valid for one dictionary identity
	// at a time.
	dictID       *string
	cipherDictID *[]byte
	codeGroups   []*group

	// Out-of-core state (grace-hash spilling). When mem is set, every new
	// group reserves its estimated footprint; the first failed reservation
	// freezes the resident group set — resident groups keep folding their
	// rows in row order (bit-exact float accumulation) — and rows of unseen
	// keys are hash-routed into spill partitions, re-aggregated recursively
	// on read-back (emitGroups). level salts the partition hash so each
	// recursion level re-partitions differently.
	mem      *MemAccountant
	spill    SpillFactory
	level    int
	reserved int64
	frozen   bool
	parts    []SpillRun
	partSel  [][]int32
	// ctx cancels the partition read-back recursion of emitGroups.
	ctx context.Context

	// mergePartials switches ingestion to pre-aggregated partial rows
	// (pre-shuffle partial aggregation): keys in the leading columns, then
	// one (count, payload) column pair per aggregate, folded in via absorb.
	mergePartials bool
}

func newGroupTable(keyIdx, aggIdx []int, specs []algebra.AggSpec, ring ringFn) *groupTable {
	return &groupTable{
		keyIdx: keyIdx, aggIdx: aggIdx, specs: specs, ring: ring,
		groups: make(map[string]*group),
	}
}

// ingest accumulates one batch under the table's mode: raw rows by default,
// pre-aggregated partial rows under mergePartials.
func (gt *groupTable) ingest(b *Batch) error {
	if gt.mergePartials {
		return gt.addPartialBatch(b)
	}
	return gt.addBatch(b)
}

// addBatch accumulates one batch, row by row in row order.
func (gt *groupTable) addBatch(b *Batch) error {
	if len(gt.keyIdx) == 1 {
		col := &b.Cols[gt.keyIdx[0]]
		switch col.Kind {
		case ColDict:
			return gt.addBatchDict(b, col, len(col.Dict))
		case ColCipherDict:
			if col.Scheme == algebra.SchemeDeterministic || col.Scheme == algebra.SchemeOPE {
				return gt.addBatchDict(b, col, len(col.CipherDict))
			}
		}
	}
	var err error
	for ri := 0; ri < b.N; ri++ {
		gt.keyBuf = gt.keyBuf[:0]
		for _, ix := range gt.keyIdx {
			gt.keyBuf, err = appendCellKey(gt.keyBuf, &b.Cols[ix], ri)
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
		if err := gt.accumulate(grp, b, ri); err != nil {
			return err
		}
	}
	return gt.flushRouted(b)
}

// addBatchDict is addBatch for a single dict-encoded key column: each row
// resolves its group by code through the memo; only a code's first row (and
// NULL cells, whose code slot is the sentinel) encodes the canonical key,
// keeping group registration — hk strings, first-seen order, key values —
// byte-identical to the generic path.
func (gt *groupTable) addBatchDict(b *Batch, col *Column, dictLen int) error {
	if col.Kind == ColDict {
		if id := DictID(col.Dict); gt.dictID != id || gt.cipherDictID != nil {
			gt.dictID, gt.cipherDictID = id, nil
			gt.resetCodeGroups(dictLen)
		}
	} else {
		if id := cipherDictID(col.CipherDict); gt.cipherDictID != id || gt.dictID != nil {
			gt.cipherDictID, gt.dictID = id, nil
			gt.resetCodeGroups(dictLen)
		}
	}
	var err error
	for ri := 0; ri < b.N; ri++ {
		var grp *group
		if col.IsNull(ri) {
			gt.keyBuf = append(append(gt.keyBuf[:0], '\x00'), '\x1f')
			grp, err = gt.groupFor(string(gt.keyBuf), b, ri)
			if err != nil {
				return err
			}
		} else if code := col.Codes[ri]; gt.codeGroups[code] != nil {
			grp = gt.codeGroups[code]
		} else {
			gt.keyBuf, err = appendCellKey(gt.keyBuf[:0], col, ri)
			if err != nil {
				return err
			}
			gt.keyBuf = append(gt.keyBuf, '\x1f')
			grp, err = gt.groupFor(string(gt.keyBuf), b, ri)
			if err != nil {
				return err
			}
			if grp != nil {
				gt.codeGroups[code] = grp
			}
		}
		if grp == nil {
			// Frozen and unseen: gt.keyBuf still holds the row's canonical
			// key (both the NULL and the unmemoized-code branches encode it;
			// memoized codes always resolve to a resident group).
			gt.route(ri)
			continue
		}
		if err := gt.accumulate(grp, b, ri); err != nil {
			return err
		}
	}
	return gt.flushRouted(b)
}

// resetCodeGroups sizes the code→group memo for a new dictionary, reusing
// the previous dictionary's storage when it fits.
func (gt *groupTable) resetCodeGroups(n int) {
	if cap(gt.codeGroups) < n {
		gt.codeGroups = make([]*group, n)
		return
	}
	gt.codeGroups = gt.codeGroups[:n]
	for i := range gt.codeGroups {
		gt.codeGroups[i] = nil
	}
}

// groupFor returns the group registered under hk, creating it (key values
// pinned from row ri) in first-seen order on first use. Under a memory
// budget, registering a new group first reserves its estimated footprint;
// the first failed reservation freezes the resident set, after which unseen
// keys return (nil, nil) — the caller's signal to spill the row.
func (gt *groupTable) groupFor(hk string, b *Batch, ri int) (*group, error) {
	grp, ok := gt.groups[hk]
	if ok {
		return grp, nil
	}
	if gt.frozen {
		return nil, nil
	}
	if gt.mem != nil {
		cost := groupCost(len(hk), len(gt.keyIdx), len(gt.specs))
		if !gt.mem.Reserve(cost) {
			if gt.spill == nil {
				return nil, fmt.Errorf("exec: memory budget exhausted (%d of %d bytes) and no spill factory configured",
					gt.mem.Used(), gt.mem.Budget())
			}
			gt.freeze()
			return nil, nil
		}
		gt.reserved += cost
	}
	grp = &group{keyVals: make([]Value, len(gt.keyIdx)), accs: make([]*groupAcc, len(gt.specs))}
	for i, ix := range gt.keyIdx {
		grp.keyVals[i] = b.Cols[ix].Value(ri)
	}
	for i, sp := range gt.specs {
		grp.accs[i] = &groupAcc{fn: sp.Func}
	}
	gt.groups[hk] = grp
	gt.order = append(gt.order, hk)
	return grp, nil
}

// accumulate folds row ri of b into grp's accumulators.
func (gt *groupTable) accumulate(grp *group, b *Batch, ri int) error {
	for i, sp := range gt.specs {
		acc := grp.accs[i]
		if sp.Star {
			if err := acc.add(Value{}, gt.ring); err != nil {
				return err
			}
			continue
		}
		col := &b.Cols[gt.aggIdx[i]]
		if acc.addFast(col, ri) {
			continue
		}
		if err := acc.add(col.Value(ri), gt.ring); err != nil {
			return err
		}
	}
	return nil
}

type groupByOp struct {
	child  Operator
	e      *Executor
	schema []algebra.Attr
	keyIdx []int
	aggIdx []int
	specs  []algebra.AggSpec
	batch  int
	ring   ringFn

	// partialIn marks a consumer-side group-by whose input is a
	// partial-aggregated shuffle edge (ShufflePartialSchema rows); the table
	// then merges shipped partials instead of folding raw rows.
	partialIn bool

	built bool
	out   [][]Value
	pos   int
}

func (g *groupByOp) Schema() []algebra.Attr { return g.schema }

func (g *groupByOp) Open() error {
	g.built, g.out, g.pos = false, nil, 0
	return g.child.Open()
}

func (g *groupByOp) Close() error { return g.child.Close() }

// build drains the input (the group-by is a pipeline breaker) and
// hash-aggregates it into one groupTable, batch by batch. Groups emit in
// first-seen order and accumulation order per group equals row order, so
// float summation does not depend on the batch size.
func (g *groupByOp) build() error {
	gt := newGroupTable(g.keyIdx, g.aggIdx, g.specs, g.ring)
	gt.mergePartials = g.partialIn
	if g.e != nil && g.e.Mem != nil {
		gt.mem, gt.spill = g.e.Mem, g.e.Spill
	}
	if g.e != nil {
		gt.ctx = g.e.Ctx
	}
	for {
		b, err := g.child.Next()
		if err != nil {
			gt.discard()
			return err
		}
		if b == nil {
			break
		}
		if err := gt.ingest(b); err != nil {
			gt.discard()
			return err
		}
	}

	g.out = make([][]Value, 0, len(gt.order))
	return emitGroups(gt, func(grp *group) error {
		row := make([]Value, 0, len(grp.keyVals)+len(g.specs))
		row = append(row, grp.keyVals...)
		for i := range g.specs {
			v, err := grp.accs[i].result()
			if err != nil {
				return err
			}
			row = append(row, v)
		}
		g.out = append(g.out, row)
		return nil
	})
}

func (g *groupByOp) Next() (*Batch, error) {
	if !g.built {
		if err := g.build(); err != nil {
			return nil, err
		}
		g.built = true
	}
	if g.pos >= len(g.out) {
		return nil, nil
	}
	end := g.pos + g.batch
	if end > len(g.out) {
		end = len(g.out)
	}
	window := g.out[g.pos:end]
	g.pos = end
	return NewBatchFromRows(window, len(g.schema))
}

// ---------------------------------------------------------------------------
// User defined function

// udfOp computes one output column by applying the registered function row
// by row (UDFs are opaque row functions); every passthrough column is
// forwarded from the input batch without copying.
type udfOp struct {
	child  Operator
	node   *algebra.UDF
	fn     UDFFunc
	argIdx []int
	srcIdx []int // output position → input column, -1 = the UDF result
	schema []algebra.Attr
}

func (u *udfOp) Schema() []algebra.Attr { return u.schema }
func (u *udfOp) Open() error            { return u.child.Open() }
func (u *udfOp) Close() error           { return u.child.Close() }

func (u *udfOp) Next() (*Batch, error) {
	b, err := u.child.Next()
	if b == nil || err != nil {
		return nil, err
	}
	args := make([]Value, len(u.argIdx))
	res := make([]Value, b.N)
	for ri := 0; ri < b.N; ri++ {
		for i, ix := range u.argIdx {
			v := b.Cols[ix].Value(ri)
			if v.IsCipher() {
				return nil, fmt.Errorf("exec: udf %q over encrypted argument %s", u.node.Name, u.node.Args[i])
			}
			args[i] = v
		}
		out, err := u.fn(args)
		if err != nil {
			return nil, fmt.Errorf("exec: udf %q: %w", u.node.Name, err)
		}
		res[ri] = out
	}
	out := &Batch{Cols: make([]Column, len(u.srcIdx)), N: b.N}
	for i, src := range u.srcIdx {
		if src < 0 {
			out.Cols[i] = NewColumn(res)
		} else {
			out.Cols[i] = b.Cols[src]
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Encryption / decryption

// encCol is one attribute to encrypt: its schema positions and the scheme
// and key ring resolved at build time. dictEnc carries the column's
// encrypted dictionary across batches.
type encCol struct {
	attr    algebra.Attr
	scheme  algebra.Scheme
	ring    *crypto.KeyRing
	idx     []int
	dictEnc *dictEncMemo
}

type encryptOp struct {
	child Operator
	e     *Executor
	cols  []encCol

	colBuf []Value // reused column gather buffer
}

func (o *encryptOp) Schema() []algebra.Attr { return o.child.Schema() }
func (o *encryptOp) Open() error            { return o.child.Open() }
func (o *encryptOp) Close() error           { return o.child.Close() }

// Next encrypts column-wise: each designated column's cells are handed to
// the batch crypto API as one call (cipher state resolved once, outputs
// arena-allocated, large columns fanned out to the worker pool), and the
// symmetric schemes' results land directly in a ciphertext-byte column —
// no per-cell Cipher allocation. Untouched columns are forwarded.
func (o *encryptOp) Next() (*Batch, error) {
	b, err := o.child.Next()
	if b == nil || err != nil {
		return nil, err
	}
	out := &Batch{Cols: append([]Column(nil), b.Cols...), N: b.N}
	for k := range o.cols {
		c := &o.cols[k]
		for _, ci := range c.idx {
			col := &b.Cols[ci]
			if col.Kind == ColCipherBytes || col.Kind == ColCipherDict {
				return nil, fmt.Errorf("exec: re-encrypting %s", c.attr)
			}
			if col.Kind == ColAny {
				for i := range col.Vals {
					if col.Vals[i].IsCipher() {
						return nil, fmt.Errorf("exec: re-encrypting %s", c.attr)
					}
				}
			}
			if col.Kind == ColDict && c.scheme == algebra.SchemeDeterministic && !col.hasNulls() {
				// Deterministic encryption maps equal plaintexts to equal
				// ciphertexts, so encrypting the dictionary once covers every
				// cell; the codes forward zero-copy. Nullable columns fall
				// back: a NULL cell encrypts to a ciphertext (the oracle
				// encrypts the NULL tag), which the dict layout cannot carry
				// in its bitmap.
				enc, err := encryptDictColumn(o.e, c.ring, c.scheme, col, &c.dictEnc)
				if err != nil {
					return nil, fmt.Errorf("exec: encrypting %s: %w", c.attr, err)
				}
				out.Cols[ci] = enc
				continue
			}
			vals := col.AppendValues(o.colBuf[:0])
			o.colBuf = vals[:0]
			if err := encryptColumnPar(o.e, c.ring, c.scheme, vals, vals); err != nil {
				return nil, fmt.Errorf("exec: encrypting %s: %w", c.attr, err)
			}
			out.Cols[ci] = cipherColumn(c.scheme, c.ring.ID, vals)
		}
	}
	return out, nil
}

// cipherColumn packs a freshly encrypted cell vector into a column: the
// symmetric schemes' payloads become a ciphertext-byte column sharing the
// scheme and key id; Paillier group elements stay generic values.
func cipherColumn(scheme algebra.Scheme, keyID string, vals []Value) Column {
	if scheme == algebra.SchemePaillier {
		return NewColumn(vals)
	}
	col := Column{Kind: ColCipherBytes, Scheme: scheme, KeyID: keyID,
		Bytes: make([][]byte, len(vals)), Plains: make([]Kind, len(vals))}
	for i := range vals {
		col.Bytes[i] = vals[i].C.Data
		col.Plains[i] = vals[i].C.Plain
	}
	return col
}

// decCol is one attribute to decrypt: its schema positions.
type decCol struct {
	attr algebra.Attr
	idx  []int
}

type decryptOp struct {
	child Operator
	e     *Executor
	cols  []decCol
	ring  ringFn
}

func (o *decryptOp) Schema() []algebra.Attr { return o.child.Schema() }
func (o *decryptOp) Open() error            { return o.child.Open() }
func (o *decryptOp) Close() error           { return o.child.Close() }

// Next decrypts column-wise: a ciphertext-byte column decrypts through one
// batched call straight off its payload vector (the scheme and key are
// column metadata — no per-cell grouping needed), generic columns group
// their cipher cells by scheme and key first, and the decrypted cells land
// in a freshly typed column. Untouched columns are forwarded.
func (o *decryptOp) Next() (*Batch, error) {
	b, err := o.child.Next()
	if b == nil || err != nil {
		return nil, err
	}
	out := &Batch{Cols: append([]Column(nil), b.Cols...), N: b.N}
	for _, c := range o.cols {
		for _, ci := range c.idx {
			src := &b.Cols[ci]
			if src.Kind != ColCipherBytes && src.Kind != ColCipherDict {
				if src.Kind != ColAny {
					return nil, fmt.Errorf("exec: decrypting plaintext %s", c.attr)
				}
				for i := range src.Vals {
					if !src.Vals[i].IsCipher() {
						return nil, fmt.Errorf("exec: decrypting plaintext %s", c.attr)
					}
				}
			}
			col, err := o.e.decryptColumn(src, o.ring)
			if err != nil {
				return nil, fmt.Errorf("exec: decrypting %s: %w", c.attr, err)
			}
			out.Cols[ci] = col
		}
	}
	return out, nil
}
