package exec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
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

// hashSeed keys the byte-key hash of every keyTable. Hashes never leave the
// process.
var hashSeed = maphash.MakeSeed()

// keyTable is the flat bucket-chain hash table behind the hash join and the
// group-by. Entries are numbered from 0. heads maps a bucket to its first
// entry and next links each entry to the following one in its bucket, both
// as entry+1, so zero means none and fresh slices need no initialization.
// An entry's key is an int64 (intKeys) or its canonical key bytes
// (appendCellKey) kept back to back in one arena.
type keyTable struct {
	heads   []int32
	next    []int32
	shift   uint // the bucket of hash h is h >> shift
	intKeys bool
	ints    []int64 // intKeys: entry e's key
	arena   []byte  // otherwise entry e's key is arena[offs[e]:offs[e+1]]
	offs    []int32
}

func hashInt(k int64) uint64 { return uint64(k) * 0x9e3779b97f4a7c15 }

func (t *keyTable) key(e int32) []byte { return t.arena[t.offs[e]:t.offs[e+1]] }

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
		var h uint64
		if t.intKeys {
			h = hashInt(t.ints[e])
		} else {
			h = maphash.Bytes(hashSeed, t.key(e))
		}
		t.next[e], t.heads[h>>shift] = t.heads[h>>shift], e+1
	}
}

// add appends an entry under byte key k of hash h, chaining afresh once the
// entries pass half the buckets.
func (t *keyTable) add(k []byte, h uint64) {
	t.arena = append(t.arena, k...)
	t.offs = append(t.offs, int32(len(t.arena)))
	t.next = append(t.next, 0)
	if n := len(t.next); 2*n > len(t.heads) {
		t.chain()
	} else {
		t.next[n-1], t.heads[h>>t.shift] = t.heads[h>>t.shift], int32(n)
	}
}

// scanInt and scanBytes walk the chain from entry e (-1 for none) to the
// first entry whose key equals k, or -1.
func (t *keyTable) scanInt(e int32, k int64) int32 {
	for e >= 0 && t.ints[e] != k {
		e = t.next[e] - 1
	}
	return e
}

func (t *keyTable) scanBytes(e int32, k []byte) int32 {
	for e >= 0 && !bytes.Equal(t.key(e), k) {
		e = t.next[e] - 1
	}
	return e
}

// ---------------------------------------------------------------------------
// Hash join

// buildRef addresses one build-side row: batch index, row index.
type buildRef struct{ b, r int32 }

// joinIndex is the build side of a hash join in columnar form: the build
// child's batches retained as delivered, and a keyTable whose entry e is
// build row rows[e], in build-row order, so a chain lists a key's matches in
// build-row order. When every build batch holds the key as a NULL-free
// ColInt, the table keys the int64s; otherwise it keys canonical key bytes.
// A row with a NULL key gets no entry: in SQL it joins nothing. A keyless
// index (a Cartesian product, or the nested loop under a non-equi join) has
// no key table: every build row matches every probe row. The index is
// immutable once built, so any number of probes may read it at once.
type joinIndex struct {
	schema  []algebra.Attr
	batches []*Batch
	rows    []buildRef
	keys    keyTable
	keyless bool
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
	if t := &idx.keys; err == nil && mem != nil { // int32 links and offsets, int64 keys, 8-byte rows
		cost := 4*int64(len(t.heads)+len(t.next)+len(t.offs)) + 8*int64(len(t.ints)+len(idx.rows)) + int64(len(t.arena))
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

// index keys every retained build row by column hashR and chains the table;
// keyless (hashR < 0), it only lists the rows.
func (x *joinIndex) index(hashR int) error {
	t, n := &x.keys, 0
	for _, b := range x.batches {
		n += b.N
	}
	x.rows = make([]buildRef, 0, n)
	if x.keyless = hashR < 0; x.keyless {
		for bi, b := range x.batches {
			for ri := 0; ri < b.N; ri++ {
				x.rows = append(x.rows, buildRef{int32(bi), int32(ri)})
			}
		}
		return nil
	}
	t.intKeys = true
	for _, b := range x.batches {
		c := &b.Cols[hashR]
		t.intKeys = t.intKeys && c.Kind == ColInt && !c.hasNulls()
	}
	if t.intKeys {
		t.ints = make([]int64, 0, n)
	} else {
		t.offs = make([]int32, 1, n+1)
	}
	var err error
	for bi, b := range x.batches {
		col := &b.Cols[hashR]
		if t.intKeys {
			t.ints = append(t.ints, col.Ints[:b.N]...)
		}
		for ri := 0; ri < b.N; ri++ {
			if !t.intKeys {
				if col.IsNull(ri) {
					continue
				}
				if t.arena, err = appendCellKey(t.arena, col, ri); err != nil {
					return err
				}
				t.offs = append(t.offs, int32(len(t.arena)))
			}
			x.rows = append(x.rows, buildRef{int32(bi), int32(ri)})
		}
	}
	t.next = make([]int32, len(x.rows))
	t.chain()
	return nil
}

// seek returns the first entry whose key equals probe row ri's, or -1, and
// the probe key for advance: an int64 in int mode, canonical bytes in buf
// otherwise. A NULL probe key matches nothing, and a probe key of another
// kind than the table's int64s (a float, a string, a ciphertext) matches
// none of them. An encrypted NULL is no NULL cell but the ciphertext of a
// one-byte plaintext, so under det two of them still join (ROADMAP 16's
// security note decides its form). A keyless index ignores col and returns
// its first row.
func (x *joinIndex) seek(col *Column, ri int, buf []byte) (int32, int64, []byte, error) {
	t := &x.keys
	if x.keyless {
		return x.advance(-1, 0, nil), 0, buf, nil
	}
	if col.IsNull(ri) {
		return -1, 0, buf, nil
	}
	if t.intKeys && col.Kind == ColInt {
		k := col.Ints[ri]
		return t.scanInt(t.first(hashInt(k)), k), k, buf, nil
	}
	buf, err := appendCellKey(buf[:0], col, ri)
	switch {
	case err != nil:
		return -1, 0, buf, err
	case !t.intKeys:
		return t.scanBytes(t.first(maphash.Bytes(hashSeed, buf)), buf), 0, buf, nil
	case len(buf) != 9 || buf[0] != 1:
		return -1, 0, buf, nil
	}
	k := int64(binary.BigEndian.Uint64(buf[1:]))
	return t.scanInt(t.first(hashInt(k)), k), k, buf, nil
}

// advance returns the entry after e whose key equals the probe key seek
// returned with e, or -1. Keyless, every entry matches.
func (x *joinIndex) advance(e int32, k int64, kb []byte) int32 {
	if x.keyless {
		if e++; int(e) < len(x.rows) {
			return e
		}
		return -1
	}
	if e = x.keys.next[e] - 1; x.keys.intKeys {
		return x.keys.scanInt(e, k)
	}
	return x.keys.scanBytes(e, kb)
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

	// Probe cursor: the current probe batch, the next probe row, and the
	// next unconsumed match of the last probed row (-1 for none) with that
	// row's key.
	cur    *Batch
	li     int
	match  int32
	key    int64
	keyBuf []byte

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
		}
		// Collect up to batch (probe row, build row) pairs from the
		// current probe batch, in probe order.
		probeSel := j.selBuf[:0]
		matches := j.matchBuf[:0]
		for {
			for j.match >= 0 && len(probeSel) < j.batch {
				probeSel = append(probeSel, int32(j.li-1))
				matches = append(matches, j.idx.rows[j.match])
				j.match = j.idx.advance(j.match, j.key, j.keyBuf)
			}
			if len(probeSel) == j.batch || j.li == j.cur.N {
				break
			}
			var key *Column
			if j.hashL >= 0 {
				key = &j.cur.Cols[j.hashL]
			}
			var err error
			j.match, j.key, j.keyBuf, err = j.idx.seek(key, j.li, j.keyBuf)
			if err != nil {
				return nil, err
			}
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

// groupAcc is the per-group accumulator of one aggregate: it folds cells in
// row order, so float sums do not depend on the batch size. A raw cell is a
// partial of count 1 (absorb(1, v)), so one fold serves rows and shipped
// partials alike.
// MIN/MAX over OPE ciphertext-byte columns track the running extreme as a
// payload reference (byteMode) — ciphertext order is byte order, so no
// Cipher is materialized per candidate.
type groupAcc struct {
	fn    sql.AggFunc
	count int64
	sum   float64
	ext   Value // MIN/MAX: the extreme so far
	phe   *big.Int
	pheC  *Cipher

	// OPE byte fast path: while byteMode is set the extreme is payload extB
	// under key extKey; the first candidate from any other layout
	// materializes ext and clears it.
	byteMode bool
	extPlain Kind
	extB     []byte
	extKey   string
}

// wins reports whether a candidate comparing c to the extreme replaces it:
// strictly, so earlier candidates win ties.
func (acc *groupAcc) wins(c int) bool {
	return acc.fn == sql.AggMin && c < 0 || acc.fn == sql.AggMax && c > 0
}

// absorb folds count rows summarized by payload into the accumulator: a raw
// cell with count 1, or a shipped partial. Counts add, sums add (Paillier
// sums homomorphically), extremes compare under compareForSort's strict
// rule, so earlier candidates win ties. The inverse of partial.
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
				return fmt.Errorf("exec: %s over %s ciphertext", acc.fn, payload.C.Scheme)
			}
			if acc.phe == nil {
				// Copy: the accumulator owns its sum so AddTo can
				// accumulate in place without a per-row allocation.
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
			acc.ext = payload
			return nil
		}
		if acc.byteMode {
			acc.materialize()
		}
		c, err := compareForSort(payload, acc.ext)
		if err != nil {
			return err
		}
		if acc.wins(c) {
			acc.ext = payload
		}
		return nil
	}
	return fmt.Errorf("exec: unknown aggregate %q", acc.fn)
}

// addFast accumulates one cell of a typed column without materializing a
// Value: the monomorphic path for COUNT, for SUM/AVG over int64/float64
// vectors, and for MIN/MAX over OPE ciphertext-byte vectors (compared as
// raw payload bytes — OPE order is byte order, exactly compareForSort's
// rule). It reports whether it handled the cell; callers fall back to
// absorb (via Column.Value) otherwise.
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
		switch {
		case acc.count == 0:
			acc.byteMode = true
		case !acc.byteMode:
			return false // an earlier candidate forced Value mode
		case !acc.wins(bytes.Compare(col.Bytes[ri], acc.extB)):
			acc.count++
			return true
		}
		acc.count++
		acc.extB, acc.extPlain, acc.extKey = col.Bytes[ri], col.Plains[ri], col.KeyID
		return true
	}
	return false
}

// materialize converts the OPE byte-reference extreme into the Cipher value
// the Value path (and the final result) carries.
func (acc *groupAcc) materialize() {
	acc.ext = Enc(&Cipher{Scheme: algebra.SchemeOPE, KeyID: acc.extKey, Data: acc.extB, Plain: acc.extPlain})
	acc.byteMode = false
}

// partial freezes the accumulator into its shuffle form: the row count it
// folded plus the payload the consumer resumes from. COUNT's payload is
// NULL (the count carries it), SUM and AVG ship the sum (plaintext float or
// Paillier cipher), MIN and MAX the extreme.
func (acc *groupAcc) partial() (int64, Value, error) {
	if acc.byteMode {
		acc.materialize()
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
	case sql.AggMin, sql.AggMax:
		return acc.count, acc.ext, nil
	}
	return 0, Value{}, fmt.Errorf("exec: unknown aggregate %q", acc.fn)
}

// result is the aggregate's final value, derived from its partial: COUNT is
// the count, AVG divides the sum by it (a Paillier sum carries the divisor
// for the key holder to apply), and AVG over no rows is NULL.
func (acc *groupAcc) result() (Value, error) {
	count, v, err := acc.partial()
	switch {
	case err != nil:
		return Value{}, err
	case acc.fn == sql.AggCount:
		return Int(count), nil
	case acc.fn != sql.AggAvg:
		return v, nil
	case v.IsCipher():
		v.C.Div, v.C.Plain = count, KFloat // partial's Cipher is fresh
		return v, nil
	case count == 0:
		return Null(), nil
	}
	return Float(v.F / float64(count)), nil
}

// groupTable hash-aggregates batches: the core of the group-by, final or
// partial. A row's group key is its key cells' canonical bytes
// (appendCellKey, self-delimiting per cell), encoded straight from the
// column vectors into a reused buffer and looked up in a keyTable whose
// entry g is group g, so groups are kept, and emitted, in first-seen order.
// A NULL key cell encodes as one byte, so NULLs form one group. Group g's
// key values, pinned from its first row, are keyVals[k][g], and its
// accumulators are accs[g*len(specs):(g+1)*len(specs)].
type groupTable struct {
	keyIdx  []int
	aggIdx  []int
	specs   []algebra.AggSpec
	ring    ringFn
	keys    keyTable
	keyVals [][]Value
	accs    []groupAcc
	keyBuf  []byte

	// When mem is set, every new group reserves its estimated footprint for
	// op (reserved, returned by releaseMem).
	mem      *MemAccountant
	op       opNamer
	reserved int64

	// mergePartials switches ingestion to pre-aggregated partial rows
	// (ShufflePartialSchema): keys in the leading columns, then one (count,
	// payload) column pair per aggregate, folded in via absorb.
	mergePartials bool
}

func newGroupTable(keyIdx, aggIdx []int, specs []algebra.AggSpec, ring ringFn) *groupTable {
	return &groupTable{keyIdx: keyIdx, aggIdx: aggIdx, specs: specs, ring: ring,
		keys:    keyTable{heads: make([]int32, 1), shift: 64, offs: []int32{0}},
		keyVals: make([][]Value, len(keyIdx))}
}

// groups returns the number of groups.
func (gt *groupTable) groups() int { return len(gt.keys.next) }

// budgeted charges the table's groups to e's memory accountant, if it has
// one, under op's name.
func (gt *groupTable) budgeted(e *Executor, op opNamer) *groupTable {
	if e != nil && e.Mem != nil {
		gt.mem, gt.op = e.Mem, op
	}
	return gt
}

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

// ingest accumulates one batch, row by row in row order: raw rows by
// default, pre-aggregated partial rows under mergePartials.
func (gt *groupTable) ingest(b *Batch) error {
	nk, ns := len(gt.keyIdx), len(gt.specs)
	for ri := 0; ri < b.N; ri++ {
		g, err := gt.groupFor(b, ri)
		if err != nil {
			return err
		}
		accs := gt.accs[g*ns : (g+1)*ns]
		for i, sp := range gt.specs {
			acc := &accs[i]
			switch {
			case gt.mergePartials:
				err = acc.absorb(b.Cols[nk+2*i].Value(ri).I, b.Cols[nk+2*i+1].Value(ri), gt.ring)
			case sp.Star:
				err = acc.absorb(1, Value{}, gt.ring)
			default:
				if col := &b.Cols[gt.aggIdx[i]]; !acc.addFast(col, ri) {
					err = acc.absorb(1, col.Value(ri), gt.ring)
				}
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// groupFor returns the group of row ri's key cells (columns keyIdx),
// creating it (key values pinned from row ri) in first-seen order on first
// use. Under a memory budget, registering a new group first reserves its
// estimated footprint, and a refused reservation is an ErrMemoryBudget
// error.
func (gt *groupTable) groupFor(b *Batch, ri int) (int, error) {
	var err error
	gt.keyBuf = gt.keyBuf[:0]
	for _, ix := range gt.keyIdx {
		if gt.keyBuf, err = appendCellKey(gt.keyBuf, &b.Cols[ix], ri); err != nil {
			return -1, err
		}
	}
	h := maphash.Bytes(hashSeed, gt.keyBuf)
	if g := gt.keys.scanBytes(gt.keys.first(h), gt.keyBuf); g >= 0 {
		return int(g), nil
	}
	if gt.mem != nil {
		cost := groupCost(len(gt.keyBuf), len(gt.keyIdx), len(gt.specs))
		if err := gt.mem.reserve(gt.op, cost); err != nil {
			return -1, err
		}
		gt.reserved += cost
	}
	for k, ix := range gt.keyIdx {
		gt.keyVals[k] = grow(gt.keyVals[k], 1)
		gt.keyVals[k][len(gt.keyVals[k])-1] = b.Cols[ix].Value(ri)
	}
	gt.accs = grow(gt.accs, len(gt.specs))
	for i, sp := range gt.specs {
		gt.accs[len(gt.accs)-len(gt.specs)+i].fn = sp.Func
	}
	gt.keys.add(gt.keyBuf, h)
	return gt.groups() - 1, nil
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

// window renders groups [lo, hi) as one batch: the key columns, then per
// aggregate its result or, under partial, its (count, payload) pair.
func (gt *groupTable) window(lo, hi int, partial bool) (*Batch, error) {
	ns, n := len(gt.specs), hi-lo
	out := &Batch{Cols: make([]Column, 0, len(gt.keyIdx)+2*ns), N: n}
	for _, vals := range gt.keyVals {
		out.Cols = append(out.Cols, NewColumn(vals[lo:hi]))
	}
	vals := make([]Value, n)
	var counts []Value
	if partial {
		counts = make([]Value, n)
	}
	for i := range gt.specs {
		for g := lo; g < hi; g++ {
			acc := &gt.accs[g*ns+i]
			var err error
			if partial {
				var c int64
				c, vals[g-lo], err = acc.partial()
				counts[g-lo] = Int(c)
			} else {
				vals[g-lo], err = acc.result()
			}
			if err != nil {
				return nil, err
			}
		}
		if partial {
			out.Cols = append(out.Cols, NewColumn(counts))
		}
		out.Cols = append(out.Cols, NewColumn(vals))
	}
	return out, nil
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

func (g *groupByOp) Close() error { return g.child.Close() }

func (g *groupByOp) Next() (*Batch, error) {
	if g.gt == nil {
		gt := newGroupTable(g.keyIdx, g.aggIdx, g.specs, g.ring).budgeted(g.e, g.span)
		gt.mergePartials = g.partialIn
		err := gt.fill(g.child)
		gt.releaseMem()
		if err != nil {
			return nil, err
		}
		g.gt = gt
	}
	lo := g.pos
	if lo >= g.gt.groups() {
		return nil, nil
	}
	g.pos = min(lo+g.batch, g.gt.groups())
	return g.gt.window(lo, g.pos, g.partialOut)
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
