package exec

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math"
	"math/big"
	"slices"

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
// Hash tables

// hashSeed keys the byte and string hashes of cellHash. Hashes never leave
// the process.
var hashSeed = maphash.MakeSeed()

// keyTable is the flat bucket-chain hash table behind the hash join and the
// group-by. Entries are numbered from 0, and each keeps only its key's hash
// (hashKeys): the key cells stay with their owner, a join's build batches
// or a group table's key vectors, which confirm a hash hit with sameKey.
// heads maps a bucket to its first entry and next links each entry to the
// following one in its bucket, both as entry+1, so zero means none and
// fresh slices need no initialization.
type keyTable struct {
	heads  []int32
	next   []int32
	shift  uint     // the bucket of hash h is h >> shift
	hashes []uint64 // entry e's hash
}

func hashInt(k int64) uint64 { return uint64(k) * 0x9e3779b97f4a7c15 }

// first returns the first entry of the bucket hash h falls in, or -1.
func (t *keyTable) first(h uint64) int32 { return t.heads[h>>t.shift] - 1 }

// chain sizes heads to a power of two at least twice the entries (one per
// slot of next) and links every entry, last first, so each chain lists its
// entries in entry order.
func (t *keyTable) chain() {
	size, shift := 1, uint(64)
	for size < 2*len(t.next) {
		size, shift = size<<1, shift-1
	}
	t.heads, t.shift = make([]int32, size), shift
	for e := int32(len(t.next)) - 1; e >= 0; e-- {
		b := t.hashes[e] >> shift
		t.next[e], t.heads[b] = t.heads[b], e+1
	}
}

// add appends an entry of hash h, chaining afresh once the entries pass
// half the buckets.
func (t *keyTable) add(h uint64) {
	t.hashes, t.next = push(t.hashes, h), push(t.next, 0)
	if n := len(t.next); 2*n > len(t.heads) {
		t.chain()
	} else {
		t.next[n-1], t.heads[h>>t.shift] = t.heads[h>>t.shift], int32(n)
	}
}

// ---------------------------------------------------------------------------
// Hash join

// buildRef addresses one build-side row: batch index, row index.
type buildRef struct{ b, r int32 }

// joinIndex is the build side of a hash join in columnar form: the build
// child's batches retained as delivered, and a keyTable whose entry e is
// build row rows[e], in build-row order, so a chain lists a key's matches in
// build-row order. An entry keeps the cellHash of its row's key cell, and a
// probe confirms a hash hit by comparing that cell, in place in column
// hashR of its batch, with the probe cell through sameKey: the group-by's
// rule. A row with a NULL key gets no entry: in SQL it joins nothing. A
// keyless index (hashR < 0: a Cartesian product, or the nested loop under a
// non-equi join) has no key table: every build row matches every probe row.
// The index is immutable once built, so any number of probes may read it
// at once.
type joinIndex struct {
	schema  []algebra.Attr
	batches []*Batch
	rows    []buildRef
	keys    keyTable
	hashR   int
	// uniform caches, per build column, the layout shared by every batch
	// (scheme and key id included for cipher columns) — ColAny when the
	// batches disagree, so gathers take the generic path. Computed once at
	// build; the probe hot path never rescans the batches for it.
	uniform []ColKind
}

// buildJoinIndex drains the build child and indexes it by the hash column
// hashR, or keyless when hashR < 0. Under a memory accountant (mem non-nil)
// every retained batch first reserves its estimated footprint for op, and
// then the built table its bytes; a refused reservation ends the build with
// ErrMemoryBudget.
// reserved is what the index holds, released by the caller when done
// probing. Without one nothing is estimated.
func buildJoinIndex(right Operator, hashR int, mem *MemAccountant, op opNamer) (idx *joinIndex, reserved int64, err error) {
	idx = &joinIndex{schema: right.Schema()}
	err = right.Open()
	for err == nil {
		var b *Batch
		if b, err = right.Next(); b == nil || err != nil {
			break
		}
		if mem != nil {
			cost := batchMemBytes(b)
			if err = mem.reserve(op, cost); err != nil {
				break
			}
			reserved += cost
		}
		idx.batches = append(idx.batches, b)
	}
	if cerr := right.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = idx.index(hashR)
	}
	if t := &idx.keys; err == nil && mem != nil { // int32 links, 8-byte hashes and rows
		cost := 4*int64(len(t.heads)+len(t.next)) + 8*int64(len(t.hashes)+len(idx.rows))
		if err = mem.reserve(op, cost); err == nil {
			reserved += cost
		}
	}
	if err != nil {
		mem.Release(reserved)
		return nil, 0, err
	}
	idx.uniform = make([]ColKind, len(idx.schema))
	for ci := range idx.uniform {
		idx.uniform[ci] = uniformKind(idx.batches, ci)
	}
	return idx, reserved, nil
}

// index hashes every retained build row's key cell (column hashR), leaves
// out the rows whose key is NULL, and chains the table; keyless (hashR <
// 0), it only lists the rows.
func (x *joinIndex) index(hashR int) error {
	t, n := &x.keys, 0
	for _, b := range x.batches {
		n += b.N
	}
	x.rows, x.hashR = make([]buildRef, 0, n), hashR
	if hashR < 0 {
		for bi, b := range x.batches {
			for ri := 0; ri < b.N; ri++ {
				x.rows = append(x.rows, buildRef{int32(bi), int32(ri)})
			}
		}
		return nil
	}
	t.hashes = make([]uint64, 0, n)
	for bi, b := range x.batches {
		col, lo := &b.Cols[hashR], len(t.hashes)
		t.hashes = grow(t.hashes, b.N)
		clear(t.hashes[lo:])
		if err := hashKeys(t.hashes[lo:], col); err != nil {
			return err
		}
		w := lo
		for ri, h := range t.hashes[lo:] { // drop NULL keys, in place
			if !col.IsNull(ri) {
				t.hashes[w], w = h, w+1
				x.rows = append(x.rows, buildRef{int32(bi), int32(ri)})
			}
		}
		t.hashes = t.hashes[:w]
	}
	t.next = make([]int32, len(x.rows))
	t.chain()
	return nil
}

// seek returns the first entry whose key is probe row ri's cell of col, or
// -1; h is that cell's hash as hashKeys gives it. A NULL probe key matches
// nothing. An encrypted NULL is no NULL cell but the ciphertext of a
// one-byte plaintext, so under det two of them still join (ROADMAP 16's
// security note decides its form). A keyless index ignores col and h and
// returns its first row.
func (x *joinIndex) seek(col *Column, ri int, h uint64) int32 {
	switch {
	case x.hashR < 0:
		return x.advance(-1, 0, nil, 0)
	case col.IsNull(ri):
		return -1
	}
	return x.scan(x.keys.first(h), h, col, ri)
}

// advance returns the entry after e whose key is probe row ri's cell of
// col, of hash h, or -1. Keyless, every entry matches.
func (x *joinIndex) advance(e int32, h uint64, col *Column, ri int) int32 {
	if x.hashR < 0 {
		if e++; int(e) < len(x.rows) {
			return e
		}
		return -1
	}
	return x.scan(x.keys.next[e]-1, h, col, ri)
}

// scan walks the chain from entry e (-1 for none) to the first entry of
// hash h whose build cell is one key with probe row ri's cell of col, or -1.
func (x *joinIndex) scan(e int32, h uint64, col *Column, ri int) int32 {
	t := &x.keys
	for ; e >= 0; e = t.next[e] - 1 {
		if t.hashes[e] != h {
			continue
		}
		rf := x.rows[e]
		// Both cells are non-NULL here, and hashInt is a bijection: two
		// ints of one hash are one key.
		if c := &x.batches[rf.b].Cols[x.hashR]; c.Kind == ColInt && col.Kind == ColInt || sameKey(c, int(rf.r), col, ri) {
			return e
		}
	}
	return -1
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
// keys are read from the hash column's vector, the index is built straight
// from the build child's column vectors (no row materialization anywhere on
// the build path), and the output batch is assembled columnar — probe-side
// columns typed-gathered by the match selection, build-side columns
// typed-gathered through the index rows. Residual conjuncts of the join
// condition run in a filterOp above the join. Output is emitted in
// at-most-batch-sized windows, so a skewed many-to-many join never
// materializes its whole fanout at once. With no hash columns (hashL and
// hashR -1) the index is keyless and the operator is the Cartesian product.
type hashJoinOp struct {
	left, right  Operator
	schema       []algebra.Attr
	hashL, hashR int
	batch        int
	leftWidth    int

	idx *joinIndex

	// With mem set, the build side is indexed under reservation for node
	// (idxReserved, returned at Close).
	mem         *MemAccountant
	node        opNamer
	idxReserved int64

	// Probe cursor: the current probe batch and its rows' key hashes (all
	// zero when keyless), the next probe row, and the next unconsumed match
	// of the last probed row (-1 for none).
	cur    *Batch
	hashes []uint64
	li     int
	match  int32

	selBuf   []int32    // reused (probe row, build row) pair buffers
	matchBuf []buildRef //
}

func (j *hashJoinOp) Schema() []algebra.Attr { return j.schema }

func (j *hashJoinOp) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	idx, reserved, err := buildJoinIndex(j.right, j.hashR, j.mem, j.node)
	if err != nil {
		return err
	}
	j.idx, j.idxReserved = idx, reserved
	j.cur, j.li, j.match = nil, 0, -1
	return nil
}

func (j *hashJoinOp) Close() error {
	if j.idxReserved > 0 {
		j.mem.Release(j.idxReserved)
		j.idxReserved = 0
		j.idx = nil
	}
	return j.left.Close()
}

func (j *hashJoinOp) Next() (*Batch, error) {
	for {
		if j.cur == nil {
			b, err := j.left.Next()
			if b == nil || err != nil {
				return nil, err
			}
			j.cur, j.li, j.match = b, 0, -1
			j.hashes = grow(j.hashes[:0], b.N)
			clear(j.hashes)
			if j.hashL >= 0 {
				if err := hashKeys(j.hashes, &b.Cols[j.hashL]); err != nil {
					return nil, err
				}
			}
		}
		// Collect up to batch (probe row, build row) pairs from the
		// current probe batch, in probe order.
		probeSel := j.selBuf[:0]
		matches := j.matchBuf[:0]
		var key *Column
		if j.hashL >= 0 {
			key = &j.cur.Cols[j.hashL]
		}
		for {
			for j.match >= 0 && len(probeSel) < j.batch {
				probeSel = append(probeSel, int32(j.li-1))
				matches = append(matches, j.idx.rows[j.match])
				j.match = j.idx.advance(j.match, j.hashes[j.li-1], key, j.li-1)
			}
			if len(probeSel) == j.batch || j.li == j.cur.N {
				break
			}
			j.match = j.idx.seek(key, j.li, j.hashes[j.li])
			j.li++
		}
		cur := j.cur
		if j.li == cur.N && j.match < 0 {
			j.cur = nil // probe batch exhausted; fetch the next one
		}
		j.selBuf, j.matchBuf = probeSel, matches
		if len(probeSel) == 0 {
			continue
		}
		return j.assemble(cur, probeSel, matches), nil
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

// groupTable hash-aggregates batches: the core of the group-by, final or
// partial. Group g's key cells are cell g of keyVecs, one vector per key
// column, pinned from the group's first row. A row's hash is mixed from its
// key cells (cellHash), a keyTable whose entry g is group g lists the
// candidates under it, and a candidate whose key vectors hold the row's
// cells is the row's group. Groups are kept, and emitted, in first-seen
// order; NULLs form one group. Each aggregate accumulates in an aggVec.
type groupTable struct {
	keyIdx  []int
	aggIdx  []int // -1 for COUNT(*)
	ring    ringFn
	keys    keyTable
	keyVecs []keyVec
	aggs    []aggVec
	pheAdd  crypto.AddScratch

	rowHash  []uint64 // per batch: each row's key hash
	rowGroup []int32  // and its group

	// Every new group reserves its estimated footprint for op under mem, if
	// set (reserved, returned by releaseMem).
	mem      *MemAccountant
	op       opNamer
	reserved int64

	// mergePartials switches ingestion to partial rows (ShufflePartialSchema):
	// the keys, then a (count, payload) column pair per aggregate.
	mergePartials bool
}

func newGroupTable(keyIdx, aggIdx []int, specs []algebra.AggSpec, ring ringFn) *groupTable {
	gt := &groupTable{keyIdx: keyIdx, aggIdx: aggIdx, ring: ring,
		keys:    keyTable{heads: make([]int32, 1), shift: 64},
		keyVecs: make([]keyVec, len(keyIdx)), aggs: make([]aggVec, len(specs))}
	for i, sp := range specs {
		if gt.aggs[i].fn = sp.Func; sp.Func == sql.AggMin || sp.Func == sql.AggMax {
			gt.aggs[i].ext = Column{Kind: ColCipherBytes, Scheme: algebra.SchemeOPE}
		}
	}
	return gt
}

// groups returns the number of groups.
func (gt *groupTable) groups() int { return len(gt.keys.next) }

// fill drains child into the table, batch by batch.
func (gt *groupTable) fill(child Operator) error {
	for {
		b, err := child.Next()
		if err != nil || b == nil {
			return err
		}
		if err := gt.ingest(b); err != nil {
			return err
		}
	}
}

// releaseMem returns the table's group reservations to the accountant.
func (gt *groupTable) releaseMem() {
	gt.mem.Release(gt.reserved)
	gt.reserved = 0
}

// ingest accumulates one batch: it finds every row's group, then folds each
// aggregate's cells into those groups in row order: raw rows by default,
// (count, payload) partials under mergePartials.
func (gt *groupTable) ingest(b *Batch) error {
	gs, err := gt.assign(b)
	if err != nil {
		return err
	}
	nk := len(gt.keyIdx)
	for i := range gt.aggs {
		a := &gt.aggs[i]
		a.resize(gt.groups())
		switch {
		case gt.mergePartials:
			counts := &b.Cols[nk+2*i]
			if counts.Kind != ColInt || counts.hasNulls() {
				return fmt.Errorf("exec: partial counts of %s are not integers", a.fn)
			}
			err = a.add(gs, counts.Ints, &b.Cols[nk+2*i+1], gt)
		case gt.aggIdx[i] < 0:
			err = a.add(gs, nil, nil, gt)
		default:
			err = a.add(gs, nil, &b.Cols[gt.aggIdx[i]], gt)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// assign returns the group of every row of b, in a vector reused across
// batches, registering new keys in first-seen order. Under a memory budget
// a new group first reserves its estimated footprint, and a refused
// reservation is an ErrMemoryBudget error.
func (gt *groupTable) assign(b *Batch) ([]int32, error) {
	hs := grow(gt.rowHash[:0], b.N)
	clear(hs)
	for _, ix := range gt.keyIdx {
		if err := hashKeys(hs, &b.Cols[ix]); err != nil {
			return nil, err
		}
	}
	cost := groupCost(gt.keyVecs, gt.aggs)
	gs := grow(gt.rowGroup[:0], b.N)
	t := &gt.keys
	for ri, h := range hs {
		g := t.first(h)
		for g >= 0 && (t.hashes[g] != h || !gt.holds(int(g), b, ri)) {
			g = t.next[g] - 1
		}
		if g < 0 {
			if err := gt.mem.reserve(gt.op, cost); err != nil {
				return nil, err
			}
			gt.reserved += cost
			g = int32(gt.groups())
			for k, ix := range gt.keyIdx {
				gt.keyVecs[k].add(&b.Cols[ix], ri)
			}
			t.add(h)
		}
		gs[ri] = g
	}
	gt.rowHash, gt.rowGroup = hs, gs
	return gs, nil
}

// holds reports whether group g's key cells hold row ri's.
func (gt *groupTable) holds(g int, b *Batch, ri int) bool {
	for k, ix := range gt.keyIdx {
		if !sameKey(&gt.keyVecs[k].Column, g, &b.Cols[ix], ri) {
			return false
		}
	}
	return true
}

// grow extends s by n zero elements, doubling its capacity when full: the
// group vectors' reallocations then total at most their final size, where
// append's gentler growth of large slices would total several times it.
func grow[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		s = slices.Grow(s, max(len(s), n))
	}
	return s[:len(s)+n]
}

// push appends v to s, growing it as grow does.
func push[T any](s []T, v T) []T {
	s = grow(s, 1)
	s[len(s)-1] = v
	return s
}

// window renders groups [lo, hi) as one batch: the key columns, then per
// aggregate its result or, under partial, its (count, payload) pair. A
// typed key vector is emitted as a zero-copy slice, and a fallback one
// through NewColumn, which picks the layout its cells share.
func (gt *groupTable) window(lo, hi int, partial bool) *Batch {
	out := &Batch{Cols: make([]Column, 0, len(gt.keyVecs)+2*len(gt.aggs)), N: hi - lo}
	for k := range gt.keyVecs {
		if col := gt.keyVecs[k].slice(lo, hi); col.Kind == ColAny {
			out.Cols = append(out.Cols, NewColumn(col.Vals))
		} else {
			out.Cols = append(out.Cols, col)
		}
	}
	for i := range gt.aggs {
		out.Cols = gt.aggs[i].window(out.Cols, lo, hi, partial)
	}
	return out
}

// cellHash hashes cell i of c by its key, alike in every layout: ints by
// value, floats by bit pattern, strings by their bytes, det and OPE
// ciphertexts by their payload, and every NULL to 1. Other ciphertexts key
// nothing. Keys sameKey holds equal hash equal. Typed cells are read in
// place; only a ColAny cell is a Value already.
func cellHash(c *Column, i int) (uint64, error) {
	null := c.IsNull(i)
	switch {
	case c.Kind == ColInt && !null:
		return hashInt(c.Ints[i]), nil
	case null:
		return 1, nil
	case c.Kind == ColFloat:
		return hashInt(int64(math.Float64bits(c.Floats[i]))), nil
	case c.Kind == ColStr || c.Kind == ColDict:
		return maphash.String(hashSeed, strCell(c, i)), nil
	case c.Kind == ColCipherBytes || c.Kind == ColCipherDict:
		return maphash.Bytes(hashSeed, cipherCell(c, i)), keyScheme(c.Scheme)
	}
	switch v := c.Vals[i]; v.Kind {
	case KInt:
		return hashInt(v.I), nil
	case KFloat:
		return hashInt(int64(math.Float64bits(v.F))), nil
	case KString:
		return maphash.String(hashSeed, v.S), nil
	case KCipher:
		return maphash.Bytes(hashSeed, v.C.Data), keyScheme(v.C.Scheme)
	default:
		return 0, fmt.Errorf("exec: cannot key kind %d", v.Kind)
	}
}

// hashKeys mixes the cellHash of every cell of c into hs, one per row, so
// zeroed hashes become the cells' cellHash and a row keyed by several
// columns mixes them in turn. A NULL-free ColInt column is hashed in bulk.
func hashKeys(hs []uint64, c *Column) error {
	if c.Kind == ColInt && !c.hasNulls() {
		for ri, k := range c.Ints[:len(hs)] {
			hs[ri] = mixHash(hs[ri], hashInt(k))
		}
		return nil
	}
	for ri := range hs {
		h, err := cellHash(c, ri)
		if err != nil {
			return err
		}
		hs[ri] = mixHash(hs[ri], h)
	}
	return nil
}

// mixHash mixes the next key column's hash h into a row's hash so far. The
// fold before the multiplication keeps hashInt from meeting its own
// product: an int hashed twice, k times the constant squared, lands 15 000
// sequential keys in a tenth of the buckets they would otherwise fill.
func mixHash(row, h uint64) uint64 { return hashInt(int64(row^row>>32)) ^ h }

// sameKey reports whether cell i of c and cell j of d are one key, the rule
// of both the hash join and the group-by: both NULL, or of one kind and
// equal, floats by bit pattern and ciphertexts by their bytes, in whatever
// layouts they come. Int 1 and float 1.0 are two keys. Typed cells are read
// in place, a dictionary's through its codes; a ColAny operand compares as
// Values.
func sameKey(c *Column, i int, d *Column, j int) bool {
	switch cl, dl := keyLayout[c.Kind], keyLayout[d.Kind]; {
	case cl == ColInt && dl == ColInt && !bit(c.Nulls, i) && !bit(d.Nulls, j):
		return c.Ints[i] == d.Ints[j]
	case cl == ColAny || dl == ColAny:
	case c.IsNull(i) || d.IsNull(j):
		return c.IsNull(i) && d.IsNull(j)
	case cl != dl:
		return false
	case cl == ColFloat:
		return math.Float64bits(c.Floats[i]) == math.Float64bits(d.Floats[j])
	case cl == ColStr:
		return strCell(c, i) == strCell(d, j)
	case cl == ColCipherBytes:
		return bytes.Equal(cipherCell(c, i), cipherCell(d, j))
	}
	a, b := c.Value(i), d.Value(j)
	switch {
	case a.Kind != b.Kind:
		return false
	case a.Kind == KFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case a.Kind == KCipher:
		return bytes.Equal(a.C.Data, b.C.Data)
	}
	return a.I == b.I && a.S == b.S
}

// keyVec holds one key column's cell of every group, in the column's own
// layout: ColInt, ColFloat, ColStr (dictionary cells resolved to their
// entries) or ColCipherBytes (det or OPE payloads with their scheme, key
// and plain kinds), its null bitmap covering every cell once a NULL
// arrives. It falls back to ColAny when a new group's cell comes in another
// layout or under another key, or a ciphertext vector meets a NULL.
type keyVec struct{ Column }

// keyLayout is the key vector layout holding a column layout's cells.
var keyLayout = [...]ColKind{ColAny: ColAny, ColInt: ColInt, ColFloat: ColFloat, ColStr: ColStr,
	ColCipherBytes: ColCipherBytes, ColDict: ColStr, ColCipherDict: ColCipherBytes}

// add appends src's cell ri as the vector's next cell.
func (kv *keyVec) add(src *Column, ri int) {
	g, null := kv.Len(), src.IsNull(ri)
	want := Column{Kind: keyLayout[src.Kind], Scheme: src.Scheme, KeyID: src.KeyID}
	if g == 0 {
		kv.Column = want
	}
	if kv.Kind != ColAny && (kv.Kind != want.Kind || kv.Scheme != want.Scheme || kv.KeyID != want.KeyID ||
		null && kv.Kind == ColCipherBytes) { // a NULL is no ciphertext
		kv.Column = Column{Kind: ColAny, Vals: kv.AppendValues(make([]Value, 0, 2*g))}
	}
	if kv.Kind != ColAny && (null || kv.Nulls != nil) {
		kv.Nulls = grow(kv.Nulls, g>>6+1-len(kv.Nulls)) // cover cell g
		if null {
			kv.setNull(g, 0)
		}
	}
	switch kv.Kind {
	case ColInt:
		kv.Ints = push(kv.Ints, src.Value(ri).I)
	case ColFloat:
		kv.Floats = push(kv.Floats, src.Value(ri).F)
	case ColStr:
		kv.Strs = push(kv.Strs, src.Value(ri).S)
	case ColCipherBytes: // a cipher dictionary's entries are strings
		kv.Bytes, kv.Plains = push(kv.Bytes, cipherCell(src, ri)), push(kv.Plains, KString)
		if src.Kind == ColCipherBytes {
			kv.Plains[g] = src.Plains[ri]
		}
	default:
		kv.Vals = push(kv.Vals, src.Value(ri))
	}
}

// aggVec accumulates one aggregate for every group in vectors indexed by
// group, folding cells in row order, so float sums do not depend on the
// batch size. A raw cell is a partial of count 1, so one fold serves rows
// and shipped partials alike. Each function keeps only what it needs.
type aggVec struct {
	fn    sql.AggFunc
	count []int64
	sum   []float64
	phe   []*big.Int // group g's homomorphic sum, nil before its first ciphertext
	pheC  []*Cipher  // and that ciphertext, whose key and plain kind the sum keeps

	// ext holds MIN or MAX extremes, as OPE ciphertext bytes compared as
	// bytes (OPE order is byte order, compareForSort's rule) while every
	// batch brings them under one key; any other batch moves every extreme
	// to ColAny for good.
	ext Column
}

// resize extends the vectors to n groups.
func (a *aggVec) resize(n int) {
	k := n - len(a.count)
	a.count = grow(a.count, k)
	switch {
	case a.fn == sql.AggSum || a.fn == sql.AggAvg:
		if a.sum = grow(a.sum, k); a.phe != nil {
			a.phe, a.pheC = grow(a.phe, k), grow(a.pheC, k)
		}
	case a.ext.Kind == ColCipherBytes:
		a.ext.Bytes, a.ext.Plains = grow(a.ext.Bytes, k), grow(a.ext.Plains, k)
	case a.fn != sql.AggCount:
		a.ext.Vals = grow(a.ext.Vals, k)
	}
}

// wins reports whether a candidate comparing c to the extreme replaces it:
// strictly, so earlier candidates win ties.
func (a *aggVec) wins(c int) bool {
	return a.fn == sql.AggMin && c < 0 || a.fn == sql.AggMax && c > 0
}

// add folds cell ri of col into group gs[ri], row by row. The cell
// summarizes counts[ri] rows of a shipped partial or, with counts nil, one
// raw row; col is nil for COUNT(*). Raw COUNTs, SUM and AVG over NULL-free
// int64 or float64 vectors, and MIN and MAX over OPE ciphertext bytes read
// the vectors; any other cell is materialized and absorbed.
func (a *aggVec) add(gs []int32, counts []int64, col *Column, gt *groupTable) error {
	sum := a.fn == sql.AggSum || a.fn == sql.AggAvg
	switch {
	case counts != nil:
	case a.fn == sql.AggCount:
		for _, g := range gs {
			a.count[g]++
		}
		return nil
	case sum && col.Kind == ColInt && !col.hasNulls():
		for ri, g := range gs {
			a.count[g]++
			a.sum[g] += float64(col.Ints[ri])
		}
		return nil
	case sum && col.Kind == ColFloat && !col.hasNulls():
		for ri, g := range gs {
			a.count[g]++
			a.sum[g] += col.Floats[ri]
		}
		return nil
	case a.ext.Kind == ColCipherBytes && col.Kind == ColCipherBytes && col.Scheme == algebra.SchemeOPE &&
		(a.ext.KeyID == "" || a.ext.KeyID == col.KeyID):
		a.ext.KeyID = col.KeyID
		for ri, g := range gs {
			if a.count[g] == 0 || a.wins(bytes.Compare(col.Bytes[ri], a.ext.Bytes[g])) {
				a.ext.Bytes[g], a.ext.Plains[g] = col.Bytes[ri], col.Plains[ri]
			}
			a.count[g]++
		}
		return nil
	}
	if a.ext.Kind == ColCipherBytes {
		a.ext = Column{Kind: ColAny, Vals: a.ext.AppendValues(nil)} // a group without a candidate yet is not read
	}
	for ri, g := range gs {
		n := int64(1)
		if counts != nil {
			n = counts[ri]
		}
		if err := a.absorb(g, n, col.Value(ri), gt); err != nil {
			return err
		}
	}
	return nil
}

// absorb folds count rows summarized by payload into group g: counts add,
// sums add (Paillier sums homomorphically, in place), extremes compare
// under compareForSort's strict rule, so earlier candidates win ties. The
// inverse of window's partial.
func (a *aggVec) absorb(g int32, count int64, payload Value, gt *groupTable) error {
	if count == 0 {
		return nil
	}
	first := a.count[g] == 0
	a.count[g] += count
	switch a.fn {
	case sql.AggCount:
		return nil
	case sql.AggSum, sql.AggAvg:
		if !payload.IsCipher() {
			f, err := payload.AsFloat()
			a.sum[g] += f
			return err
		}
		c := payload.C
		if c.Scheme != algebra.SchemePaillier {
			return fmt.Errorf("exec: %s over %s ciphertext", a.fn, c.Scheme)
		}
		if a.phe == nil {
			a.phe, a.pheC = make([]*big.Int, len(a.count)), make([]*Cipher, len(a.count))
		}
		if a.phe[g] == nil {
			// Copy: the group owns its sum, so AddTo can accumulate in place.
			a.phe[g], a.pheC[g] = new(big.Int).Set(c.Phe), c
			return nil
		}
		pk, err := pheKey(gt.ring, c.KeyID)
		if err != nil {
			return err
		}
		pk.AddTo(a.phe[g], c.Phe, &gt.pheAdd)
		return nil
	case sql.AggMin, sql.AggMax:
		if first {
			a.ext.Vals[g] = payload
			return nil
		}
		c, err := compareForSort(payload, a.ext.Vals[g])
		if err == nil && a.wins(c) {
			a.ext.Vals[g] = payload
		}
		return err
	}
	return fmt.Errorf("exec: unknown aggregate %q", a.fn)
}

// window appends the aggregate's columns for groups [lo, hi) to cols: the
// count and the payload a consumer resumes from (NULL for COUNT, the sum,
// or the extreme) under partial, else the result: COUNT is the count, AVG
// divides the sum by it (a Paillier sum carries the divisor for the key
// holder to apply), and AVG over no rows is NULL. Counts, plaintext sums
// and OPE extremes are zero-copy slices of the vectors.
func (a *aggVec) window(cols []Column, lo, hi int, partial bool) []Column {
	if partial {
		cols = append(cols, Column{Kind: ColInt, Ints: a.count[lo:hi]})
	}
	switch {
	case a.fn == sql.AggCount && partial:
		return append(cols, Column{Kind: ColAny, Vals: make([]Value, hi-lo)})
	case a.fn == sql.AggCount:
		return append(cols, Column{Kind: ColInt, Ints: a.count[lo:hi]})
	case a.ext.Kind == ColCipherBytes:
		return append(cols, a.ext.slice(lo, hi))
	case a.fn == sql.AggMin || a.fn == sql.AggMax:
		return append(cols, NewColumn(a.ext.Vals[lo:hi]))
	case a.phe == nil && (a.fn == sql.AggSum || partial):
		return append(cols, Column{Kind: ColFloat, Floats: a.sum[lo:hi]})
	}
	vals := make([]Value, hi-lo) // Paillier sums and AVG results
	for g := lo; g < hi; g++ {
		n, v := a.count[g], Float(a.sum[g])
		if a.phe != nil && a.phe[g] != nil {
			c := a.pheC[g]
			v = Enc(&Cipher{Scheme: algebra.SchemePaillier, KeyID: c.KeyID, Phe: a.phe[g], Div: 1, Plain: c.Plain})
		}
		switch {
		case partial || a.fn != sql.AggAvg:
		case v.IsCipher():
			v.C.Div, v.C.Plain = n, KFloat
		case n == 0:
			v = Null()
		default:
			v = Float(v.F / float64(n))
		}
		vals[g-lo] = v
	}
	return append(cols, NewColumn(vals))
}

// groupByOp drains its input (the group-by is a pipeline breaker) into one
// groupTable and emits one row per group, in first-seen order, in
// at-most-batch-sized windows. Accumulation order per group equals row
// order, so float summation does not depend on the batch size. The final
// group-by emits g's schema. Pre-shuffle partial aggregation uses the same
// operator twice: the producer of a marked shuffle edge emits partials
// (partialOut, ShufflePartialSchema rows, one per group), and the
// consumer's group-by merges them (partialIn); with a single producer
// folding in row order the merged result is bit-identical to the
// unshuffled fold.
type groupByOp struct {
	child  Operator
	e      *Executor
	span   opNamer // names the operator's memory reservations
	schema []algebra.Attr
	keyIdx []int
	aggIdx []int
	specs  []algebra.AggSpec
	batch  int
	ring   ringFn

	partialIn, partialOut bool

	gt  *groupTable // built by the first Next
	pos int
}

// newGroupByOp compiles g over child: the final group-by, the producer half
// of a partial-aggregated shuffle edge (partialOut) or its consumer half
// (partialIn), whose input keys lead and whose aggregates are (count,
// payload) column pairs.
func (e *Executor) newGroupByOp(g *algebra.GroupBy, child Operator, partialIn, partialOut bool) (*groupByOp, error) {
	op := &groupByOp{
		child: child, e: e, span: g, schema: g.Schema(),
		keyIdx: make([]int, len(g.Keys)), aggIdx: make([]int, len(g.Aggs)), specs: g.Aggs,
		batch: e.batchSize(), ring: e.ringCache(),
		partialIn: partialIn, partialOut: partialOut,
	}
	if partialOut {
		op.span, op.schema = PartialSpan{g}, ShufflePartialSchema(g)
	}
	in := child.Schema()
	for i, k := range g.Keys {
		op.keyIdx[i] = i // a partial's keys lead
		if partialIn {
			continue
		}
		if op.keyIdx[i] = schemaIndex(in, k); op.keyIdx[i] < 0 {
			return nil, fmt.Errorf("exec: group key %s not in input", k)
		}
	}
	for i, sp := range g.Aggs {
		op.aggIdx[i] = -1 // COUNT(*), or a partial's (count, payload) pair
		if partialIn || sp.Star {
			continue
		}
		if op.aggIdx[i] = schemaIndex(in, sp.Attr); op.aggIdx[i] < 0 {
			return nil, fmt.Errorf("exec: aggregate attribute %s not in input", sp.Attr)
		}
	}
	return op, nil
}

func (g *groupByOp) Schema() []algebra.Attr { return g.schema }

func (g *groupByOp) Open() error {
	g.gt, g.pos = nil, 0
	return g.child.Open()
}

// Close returns the table's reservation: the table stays resident, and
// charged, while its windows are emitted.
func (g *groupByOp) Close() error {
	if g.gt != nil {
		g.gt.releaseMem()
		g.gt = nil
	}
	return g.child.Close()
}

func (g *groupByOp) Next() (*Batch, error) {
	if g.gt == nil {
		gt := newGroupTable(g.keyIdx, g.aggIdx, g.specs, g.ring)
		gt.mem, gt.op, gt.mergePartials = g.e.Mem, g.span, g.partialIn
		if err := gt.fill(g.child); err != nil {
			gt.releaseMem()
			return nil, err
		}
		g.gt = gt
	}
	lo := g.pos
	if lo >= g.gt.groups() {
		return nil, nil
	}
	g.pos = min(lo+g.batch, g.gt.groups())
	return g.gt.window(lo, g.pos, g.partialOut), nil
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

// Next encrypts column-wise through encryptCol; untouched columns are
// forwarded.
func (o *encryptOp) Next() (*Batch, error) {
	b, err := o.child.Next()
	if b == nil || err != nil {
		return nil, err
	}
	out := &Batch{Cols: append([]Column(nil), b.Cols...), N: b.N}
	for k := range o.cols {
		c := &o.cols[k]
		for _, ci := range c.idx {
			if out.Cols[ci], err = o.e.encryptCol(c, &b.Cols[ci], &o.colBuf); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// encryptCol encrypts one plaintext column of c's attribute, a batch window
// or a whole table column alike: the cells are handed to the batch crypto
// API as one call (cipher state resolved once, outputs arena-allocated,
// large columns fanned out to the worker pool), and the symmetric schemes'
// results land directly in a ciphertext-byte column with no per-cell
// Cipher allocation. buf is a reusable gather buffer.
func (e *Executor) encryptCol(c *encCol, col *Column, buf *[]Value) (Column, error) {
	if col.Kind == ColCipherBytes || col.Kind == ColCipherDict || slices.ContainsFunc(col.Vals, Value.IsCipher) {
		return Column{}, fmt.Errorf("exec: re-encrypting %s", c.attr)
	}
	if col.Kind == ColDict && c.scheme == algebra.SchemeDeterministic && !col.hasNulls() {
		// Deterministic encryption maps equal plaintexts to equal
		// ciphertexts, so encrypting the dictionary once covers every
		// cell; the codes forward zero-copy. Nullable columns fall back: a
		// NULL cell encrypts to a ciphertext (the oracle encrypts the NULL
		// tag), which the dict layout cannot carry in its bitmap.
		enc, err := encryptDictColumn(e, c.ring, c.scheme, col, &c.dictEnc)
		if err != nil {
			return Column{}, fmt.Errorf("exec: encrypting %s: %w", c.attr, err)
		}
		return enc, nil
	}
	vals := col.AppendValues((*buf)[:0])
	*buf = vals[:0]
	if err := encryptColumnPar(e, c.ring, c.scheme, vals, vals); err != nil {
		return Column{}, fmt.Errorf("exec: encrypting %s: %w", c.attr, err)
	}
	return cipherColumn(c.scheme, c.ring.ID, vals), nil
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
