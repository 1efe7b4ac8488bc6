package exec

import (
	"fmt"
	"math/big"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"mpq/internal/algebra"
	"mpq/internal/crypto"
	"mpq/internal/obs"
)

// Ciphertext column cache. A prepared plan executes many times on clones of
// one executor per subject, and an encrypt operator sitting directly on a
// base-table scan then produces the same cells under the same keys every
// time. The cache keeps the full-length ciphertext vectors such an operator
// produced and serves zero-copy windows of them on later executions, so a
// plan-cache hit stops calling the crypto layer for its base columns.
//
// Scope and lifetime. The cache hangs off the long-lived subject executor
// and is shared (not copied) by Clone, so it belongs to exactly one prepared
// plan's network: it never crosses plans, key rings, subjects, or
// authorization versions, and it is garbage with the plan. Entries are keyed
// by the plan's *algebra.Encrypt node and additionally pinned to the key-ring
// identities the operator resolved and to the table's column snapshot
// (identity of the cached vectors plus their row count), so replaced keys,
// Append, and InvalidateColumns all fall back to re-encryption.
//
// Admission is second touch, observed here and not configured: the first
// execution of an operator streams and keeps nothing; the second encrypts
// the table snapshot's encrypted columns whole in Open, publishes them, and
// serves its own windows from them; later ones serve. Statements that never
// repeat therefore never pay for a fill.
//
// Bound: at most what one execution ships on the plan's encrypt-over-scan
// edges, per cached plan. It is plan state, like the key rings, and is not
// charged to the per-query MemBudget.
type encCache struct {
	mu      sync.Mutex
	entries map[*algebra.Encrypt]*encEntry
}

// encEntry is one encrypt-over-scan operator's admission state.
type encEntry struct {
	filling bool        // one execution is encrypting; concurrent ones stream
	pub     *encColumns // nil until a fill published (or after it went stale)
}

// encColumns is one published fill: the operator's encrypted columns of one
// table snapshot under one set of key rings.
type encColumns struct {
	src   *Column           // first header of the table's column snapshot
	n     int               // rows of that snapshot
	rings []*crypto.KeyRing // per encrypted attribute, in operator order
	cols  []Column          // one full-length vector per encrypted schema position
}

// EncCacheStats is a snapshot of the process-global ciphertext column cache
// counters: the bytes published fills currently hold (released when their
// plan is collected) and how executions of encrypt-over-scan operators ran.
type EncCacheStats struct {
	Bytes  int64
	Stream uint64 // encrypted on the fly, nothing kept
	Fill   uint64 // the table's columns encrypted whole and published, then served
	Serve  uint64 // served from the cache, no crypto calls
}

var encCacheStats struct {
	bytes               atomic.Int64
	stream, fill, serve atomic.Uint64
}

// ReadEncCacheStats snapshots the process-global cache counters.
func ReadEncCacheStats() EncCacheStats {
	return EncCacheStats{
		Bytes:  encCacheStats.bytes.Load(),
		Stream: encCacheStats.stream.Load(),
		Fill:   encCacheStats.fill.Load(),
		Serve:  encCacheStats.serve.Load(),
	}
}

// touched reports whether node has run before: only then does its
// operator build the bare scan that a fill or a served run reads through.
func (c *encCache) touched(node *algebra.Encrypt) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[node] != nil
}

// admit decides how one execution of node runs against the given table
// snapshot and key rings: from the returned fill (serve), as the filling
// execution (fill true), or streaming. canServe is false when the caller has
// no scan to serve windows over.
func (c *encCache) admit(node *algebra.Encrypt, src *Column, n int, rings []*crypto.KeyRing, canServe bool) (pub *encColumns, fill bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent := c.entries[node]
	if ent == nil {
		if c.entries == nil {
			c.entries = make(map[*algebra.Encrypt]*encEntry)
		}
		c.entries[node] = &encEntry{}
		encCacheStats.stream.Add(1)
		return nil, false
	}
	if p := ent.pub; p != nil {
		switch {
		case p.src != src || p.n != n || !slices.Equal(p.rings, rings):
			ent.pub = nil // appended or invalidated table, replaced keys
		case canServe:
			encCacheStats.serve.Add(1)
			return p, false
		}
	}
	if ent.pub == nil && !ent.filling && src != nil && canServe {
		ent.filling = true
		encCacheStats.fill.Add(1)
		return nil, true
	}
	encCacheStats.stream.Add(1)
	return nil, false
}

// finish ends node's filling execution, publishing pub (nil when the fill
// failed, leaving the entry fillable).
func (c *encCache) finish(node *algebra.Encrypt, pub *encColumns) {
	c.mu.Lock()
	ent := c.entries[node]
	ent.filling = false
	if pub != nil {
		ent.pub = pub
	}
	c.mu.Unlock()
	if pub == nil {
		return
	}
	var bytes int64
	for i := range pub.cols {
		bytes += cipherColumnBytes(&pub.cols[i])
	}
	encCacheStats.bytes.Add(bytes)
	runtime.AddCleanup(pub, func(b int64) { encCacheStats.bytes.Add(-b) }, bytes)
}

// cachedEncryptOp runs an encrypt operator whose child is a bare base scan
// through the executor's ciphertext column cache. Open picks the mode:
// serve replaces the encrypted positions of the scan's plaintext windows
// with windows of the published vectors; fill first encrypts and publishes
// those vectors, then serves; stream is the streaming operator untouched.
type cachedEncryptOp struct {
	e      *Executor
	cache  *encCache
	node   *algebra.Encrypt
	t      *Table
	cols   []encCol           // the encrypted attributes, resolved as the streaming operator resolves them
	rings  []*crypto.KeyRing  // per encrypted attribute, in operator order
	phe    []*crypto.Paillier // keys of the Paillier columns among them
	encIdx []int              // encrypted schema positions, in operator order
	stream Operator           // the uncached operator
	scan   Operator           // the bare child scan; nil on the node's first touch
	sp     *obs.Span          // traced runs: marked cached when serving

	cur   Operator    // the operator this execution pulls from
	serve *encColumns // serving from this fill
	rows  int         // rows emitted by this execution
}

func (o *cachedEncryptOp) Schema() []algebra.Attr { return o.stream.Schema() }

// Open opens the scan before validating the published fill against the
// table: a snapshot that still matches afterwards is the one the scan took.
func (o *cachedEncryptOp) Open() error {
	o.serve, o.rows = nil, 0
	if o.scan != nil {
		o.cur = o.scan
		if err := o.scan.Open(); err != nil {
			return err
		}
	}
	cols, n, err := o.t.snapshotColumns()
	if err != nil {
		return err
	}
	var src *Column
	if len(cols) > 0 {
		src = &cols[0]
	}
	pub, fill := o.cache.admit(o.node, src, n, o.rings, o.scan != nil)
	if fill {
		pub, err = o.fill(cols, src, n)
		o.cache.finish(o.node, pub)
		if err != nil {
			return err
		}
		// The plan does not encrypt these columns again while the fill
		// stands; the keys' randomizer tables (over a megabyte each, most
		// of a cached plan's heap) rebuild on demand if it ever does.
		for _, pk := range o.phe {
			pk.ReleasePrecomputed()
		}
	} else if pub != nil && o.sp != nil {
		o.sp.MarkCached()
	}
	if o.serve = pub; pub != nil {
		return nil
	}
	if o.scan != nil {
		o.scan.Close()
	}
	o.cur = o.stream
	return o.stream.Open()
}

// fill encrypts the snapshot's encrypted columns whole through encryptCol,
// compacting each before the next is encrypted, so the fill's peak holds one
// uncompacted column.
func (o *cachedEncryptOp) fill(cols []Column, src *Column, n int) (*encColumns, error) {
	pub := &encColumns{src: src, n: n, rings: o.rings, cols: make([]Column, 0, len(o.encIdx))}
	var buf []Value
	for k := range o.cols {
		c := &o.cols[k]
		col := &cols[o.t.ColIndex(c.attr)]
		for range c.idx {
			enc, err := o.e.encryptCol(c, col, &buf)
			if err != nil {
				return nil, err
			}
			pub.cols = append(pub.cols, compactPaillier(enc))
		}
	}
	return pub, nil
}

func (o *cachedEncryptOp) Next() (*Batch, error) {
	b, err := o.cur.Next()
	if err != nil || o.serve == nil {
		return b, err
	}
	return o.serveWindow(b)
}

// serveWindow swaps the published ciphertext windows into the encrypted
// positions of one plaintext scan window.
func (o *cachedEncryptOp) serveWindow(b *Batch) (*Batch, error) {
	if b == nil {
		return nil, nil
	}
	end := o.rows + b.N
	if end > o.serve.n {
		return nil, fmt.Errorf("exec: scan outran the cached ciphertext of %s", o.node.Op())
	}
	out := &Batch{Cols: append([]Column(nil), b.Cols...), N: b.N}
	for k, ci := range o.encIdx {
		out.Cols[ci] = o.serve.cols[k].slice(o.rows, end)
	}
	o.rows = end
	return out, nil
}

func (o *cachedEncryptOp) Close() error {
	if o.cur == nil {
		return nil
	}
	cur := o.cur
	o.cur = nil
	return cur.Close()
}

// compactPaillier re-homes a column of Paillier ciphertexts: group elements
// into exact-size limbs cut from one arena, big.Int and Cipher headers into
// one slice each. Freshly computed big.Ints carry the slack capacity of the
// modular arithmetic that produced them (~170 B per 2048-bit element), which
// a cached column would pin for the life of the plan. Columns holding
// anything else are returned unchanged.
func compactPaillier(c Column) Column {
	if c.Kind != ColAny {
		return c
	}
	words := 0
	for i := range c.Vals {
		v := &c.Vals[i]
		if v.Kind != KCipher || v.C.Phe == nil || v.C.Phe.Sign() < 0 {
			return c
		}
		words += len(v.C.Phe.Bits())
	}
	arena := make([]big.Word, words)
	ints := make([]big.Int, len(c.Vals))
	ciphers := make([]Cipher, len(c.Vals))
	out := Column{Kind: ColAny, Vals: make([]Value, len(c.Vals))}
	for i := range c.Vals {
		src := c.Vals[i].C
		w := src.Phe.Bits()
		limbs := arena[:len(w):len(w)]
		arena = arena[len(w):]
		copy(limbs, w)
		ints[i].SetBits(limbs)
		ciphers[i] = *src
		ciphers[i].Phe = &ints[i]
		out.Vals[i] = Enc(&ciphers[i])
	}
	return out
}

// cipherColumnBytes estimates the heap a cached ciphertext column holds:
// payloads plus the per-cell headers of its layout.
func cipherColumnBytes(c *Column) int64 {
	const sliceHeader = int64(unsafe.Sizeof([]byte(nil)))
	const pheHeaders = int64(unsafe.Sizeof(Value{}) + unsafe.Sizeof(Cipher{}) + unsafe.Sizeof(big.Int{}))
	total := int64(len(c.Bytes))*(sliceHeader+1) + int64(len(c.CipherDict))*sliceHeader + 4*int64(len(c.Codes))
	for _, b := range c.Bytes {
		total += int64(len(b))
	}
	for _, b := range c.CipherDict {
		total += int64(len(b))
	}
	for i := range c.Vals {
		total += pheHeaders
		if ct := c.Vals[i].C; ct != nil && ct.Phe != nil {
			total += int64(len(ct.Phe.Bits())) * int64(unsafe.Sizeof(big.Word(0)))
		}
	}
	return total
}
