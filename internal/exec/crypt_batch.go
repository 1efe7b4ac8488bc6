package exec

import (
	"fmt"
	"math/big"
	"runtime"
	"slices"
	"sync"

	"mpq/internal/algebra"
	"mpq/internal/crypto"
)

// The batch crypto path. Per-value crypto (the tests' encryptValueRef and
// DecryptValue oracles) resolves the ring's cipher, allocates an encoding
// and builds cipher state for every cell; the column-wise entry points
// below amortize all of it per batch — one cipher resolution, one encoding
// arena, one batched call into internal/crypto — and optionally split
// large columns across an intra-batch worker pool. Every batch result is
// bit-identical to the per-value calls for the deterministic schemes,
// decrypt-identical for the randomized ones (TestEncryptOpBatchVsValueCrypto).

// cryptoParMinCells is the column size from which the symmetric batch
// entry points fan out to the worker pool; below it, goroutine hand-off
// costs more than it saves.
const cryptoParMinCells = 512

// cryptoParMinPaillier is the same threshold for Paillier cells, whose
// per-value cost is orders of magnitude higher.
const cryptoParMinPaillier = 16

// cryptoWorkers returns the effective intra-batch worker count:
// CryptoWorkers when positive (tests force concurrency with it), else
// GOMAXPROCS; negative disables the pool.
func (e *Executor) cryptoWorkers() int {
	switch {
	case e == nil || e.CryptoWorkers < 0:
		return 1
	case e.CryptoWorkers > 0:
		return e.CryptoWorkers
	default:
		return runtime.GOMAXPROCS(0)
	}
}

// runChunks splits [0, n) into up to `workers` contiguous chunks whose
// sizes differ by at most one, each of at least minChunk items, and runs fn
// on each concurrently. Chunks are disjoint, so fn may write shared slices
// index-wise without locks. The first error wins.
func runChunks(n, workers, minChunk int, fn func(lo, hi int) error) error {
	if workers > n/minChunk {
		workers = n / minChunk
	}
	if workers <= 1 {
		return fn(0, n)
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for i := 0; i < workers; i++ {
		lo, hi := i*n/workers, (i+1)*n/workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			if err := fn(lo, hi); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
		}(lo, hi)
	}
	wg.Wait()
	return firstErr
}

// ---------------------------------------------------------------------------
// Batch encryption

// encryptColumnPar encrypts vals into dst with the executor's intra-batch
// worker pool applied to large columns. A column longer than the batch size
// (a whole table column filling the ciphertext cache) is walked in
// batch-size ranges with the run's context probed between them, so a
// cancelled run stops within one batch of work.
func encryptColumnPar(e *Executor, ring *crypto.KeyRing, scheme algebra.Scheme, vals, dst []Value) error {
	minChunk := cryptoParMinCells
	if scheme == algebra.SchemePaillier {
		minChunk = cryptoParMinPaillier
	}
	step := e.batchSize()
	for lo := 0; lo < len(vals); lo += step {
		if err := ctxErr(e.Ctx); err != nil {
			return err
		}
		v, d := vals[lo:min(lo+step, len(vals))], dst[lo:]
		err := runChunks(len(v), e.cryptoWorkers(), minChunk, func(lo, hi int) error {
			return encryptColumnInto(ring, scheme, v[lo:hi], d[lo:hi])
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// dictEncMemo caches one plaintext dictionary's encryption, so every batch
// of a column (table scans serve windows over one shared dictionary) reuses
// the same ciphertext dictionary: each distinct value is encrypted once per
// column, not once per batch, and the cipher dict keeps one identity for the
// downstream per-edge wire ledgers and predicate memos.
type dictEncMemo struct {
	plainID    *string // identity of the plaintext dictionary (DictID)
	cipherDict [][]byte
}

// encryptDictColumn encrypts a dictionary-encoded string column by
// encrypting each distinct dictionary entry exactly once; the codes forward
// into the cipher-dict column zero-copy. Deterministic scheme only: equal
// plaintexts must map to equal ciphertexts for cells to share an entry
// (randomized encryption would link equal cells; OPE rejects strings).
// *memo persists the encrypted dictionary across batches.
func encryptDictColumn(e *Executor, ring *crypto.KeyRing, scheme algebra.Scheme, col *Column, memo **dictEncMemo) (Column, error) {
	cipherDict := func(cd [][]byte) Column {
		dictStats.encCells.Add(uint64(len(col.Codes)))
		return Column{Kind: ColCipherDict, Scheme: scheme, KeyID: ring.ID,
			Codes: col.Codes, CipherDict: cd, Nulls: col.Nulls}
	}
	if m := *memo; m != nil && m.plainID == DictID(col.Dict) {
		return cipherDict(m.cipherDict), nil
	}
	vals := make([]Value, len(col.Dict))
	for i, s := range col.Dict {
		vals[i] = String(s)
	}
	if err := encryptColumnPar(e, ring, scheme, vals, vals); err != nil {
		return Column{}, err
	}
	cd := make([][]byte, len(vals))
	for i := range vals {
		cd[i] = vals[i].C.Data
	}
	dictStats.encEntries.Add(uint64(len(cd)))
	*memo = &dictEncMemo{plainID: DictID(col.Dict), cipherDict: cd}
	return cipherDict(cd), nil
}

// encryptColumnInto encrypts vals into dst (dst may alias vals; every
// input is consumed before the first output is written).
func encryptColumnInto(ring *crypto.KeyRing, scheme algebra.Scheme, vals, dst []Value) error {
	if len(vals) == 0 {
		return nil
	}
	cs := make([]Cipher, len(vals))
	switch scheme {
	case algebra.SchemeDeterministic, algebra.SchemeRandom:
		// Pack the column's encodings into one arena (slot i at
		// bounds[i]:bounds[i+1]) and encrypt it in place-adjacent form: no
		// per-slot slice headers anywhere on the hot path.
		bounds := make([]int, len(vals)+1)
		for i, v := range vals {
			n, err := plainSize(v)
			if err != nil {
				return err
			}
			bounds[i+1] = bounds[i] + n
		}
		arena := make([]byte, bounds[len(vals)])
		for i, v := range vals {
			if err := writePlain(arena[bounds[i]:bounds[i+1]], v); err != nil {
				return err
			}
		}
		var (
			ct  []byte
			err error
		)
		if scheme == algebra.SchemeDeterministic {
			d, derr := ring.Det()
			if derr != nil {
				return derr
			}
			ct, err = d.EncryptArena(arena, bounds)
		} else {
			r, rerr := ring.Rnd()
			if rerr != nil {
				return rerr
			}
			ct, err = r.EncryptArena(arena, bounds)
		}
		if err != nil {
			return err
		}
		const ivSize = 16 // aes.BlockSize, the arena slot widening
		keyID := ring.ID
		for i, v := range vals {
			lo, hi := bounds[i]+i*ivSize, bounds[i+1]+(i+1)*ivSize
			// Field-wise stores: a composite-literal assignment copies the
			// whole struct through a temporary on every iteration.
			c := &cs[i]
			c.Scheme = scheme
			c.KeyID = keyID
			c.Data = ct[lo:hi:hi]
			c.Plain = v.Kind
			d := &dst[i]
			d.Kind = KCipher
			d.I, d.F, d.S = 0, 0, ""
			d.C = c
		}
	case algebra.SchemeOPE:
		o, err := ring.OPE()
		if err != nil {
			return err
		}
		encs := make([]uint64, len(vals))
		for i, v := range vals {
			if encs[i], err = opeEncode(v); err != nil {
				return err
			}
		}
		cts := o.EncryptBatch(encs)
		for i, v := range vals {
			cs[i] = Cipher{Scheme: scheme, KeyID: ring.ID, Data: cts[i], Plain: v.Kind}
			dst[i] = Enc(&cs[i])
		}
	case algebra.SchemePaillier:
		pk, err := ring.Paillier()
		if err != nil {
			return err
		}
		ms := make([]*big.Int, len(vals))
		for i, v := range vals {
			if ms[i], err = pheEncode(v); err != nil {
				return err
			}
		}
		cts, err := pk.EncryptBatch(ms)
		if err != nil {
			return err
		}
		for i, v := range vals {
			cs[i] = Cipher{Scheme: scheme, KeyID: ring.ID, Phe: cts[i], Div: 1, Plain: v.Kind}
			dst[i] = Enc(&cs[i])
		}
	default:
		return fmt.Errorf("exec: unknown scheme %q", scheme)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Batch decryption

// DecryptBatch returns b with every ciphertext decrypted by the executor's
// keys, leaving b untouched: each column holding ciphertexts is replaced by
// its decryptColumn, the others are shared. This is the
// user-side step of Section 6. A cipher-dictionary column decrypts cell by
// cell here, as its generic form: a result window is often far smaller than
// the scan dictionary it shares.
func (e *Executor) DecryptBatch(b *Batch) (*Batch, error) {
	out := &Batch{Cols: append([]Column(nil), b.Cols...), N: b.N}
	for ci := range out.Cols {
		col := &out.Cols[ci]
		switch col.Kind {
		case ColCipherBytes:
		case ColCipherDict:
			cells := NewColumn(col.AppendValues(nil))
			col = &cells
		case ColAny:
			if !slices.ContainsFunc(col.Vals, Value.IsCipher) {
				continue
			}
		default:
			continue
		}
		dec, err := e.decryptColumn(col, e.Keys.Get)
		if err != nil {
			return nil, err
		}
		out.Cols[ci] = dec
	}
	return out, nil
}

// decryptColumn decrypts one cipher column into its replacement plaintext
// column. A ciphertext-byte column decrypts straight off its payload vector
// — the scheme and key are column metadata, so there is nothing to group —
// while a generic column's cipher cells are grouped by scheme and key first
// and its plaintext cells pass through. Large columns fan out to the
// intra-batch worker pool.
func (e *Executor) decryptColumn(col *Column, resolve func(string) (*crypto.KeyRing, error)) (Column, error) {
	if col.Kind == ColCipherDict {
		// Decrypt the dictionary once and fan the codes back out: the
		// plaintext column stays dict-encoded, sharing the codes vector.
		ring, err := resolve(col.KeyID)
		if err != nil {
			return Column{}, err
		}
		ents := make([]Value, len(col.CipherDict))
		plains := make([]Kind, len(col.CipherDict))
		for i := range plains {
			plains[i] = KString
		}
		if err := decryptBytesInto(ring, col.Scheme, col.CipherDict, plains, ents); err != nil {
			return Column{}, err
		}
		dict := make([]string, len(ents))
		for i := range ents {
			if ents[i].Kind != KString {
				return Column{}, fmt.Errorf("exec: cipher-dict entry is not a string")
			}
			dict[i] = ents[i].S
		}
		dictStats.decEntries.Add(uint64(len(dict)))
		dictStats.decCells.Add(uint64(len(col.Codes)))
		return Column{Kind: ColDict, Codes: col.Codes, Dict: dict, Nulls: col.Nulls}, nil
	}
	n := col.Len()
	vals := make([]Value, n)
	if col.Kind == ColCipherBytes {
		ring, err := resolve(col.KeyID)
		if err != nil {
			return Column{}, err
		}
		scheme := col.Scheme
		err = runChunks(n, e.cryptoWorkers(), cryptoParMinCells, func(lo, hi int) error {
			return decryptBytesInto(ring, scheme, col.Bytes[lo:hi], col.Plains[lo:hi], vals[lo:hi])
		})
		if err != nil {
			return Column{}, err
		}
		return NewColumn(vals), nil
	}
	// A generic column's cipher cells group by scheme and key, in first-seen
	// order, and each group decrypts in place; plaintext cells pass through.
	copy(vals, col.Vals)
	type schemeKey struct {
		scheme algebra.Scheme
		keyID  string
	}
	var order []schemeKey
	groups := make(map[schemeKey][]int)
	for i := range vals {
		if vals[i].IsCipher() {
			k := schemeKey{vals[i].C.Scheme, vals[i].C.KeyID}
			if _, ok := groups[k]; !ok {
				order = append(order, k)
			}
			groups[k] = append(groups[k], i)
		}
	}
	for _, k := range order {
		ring, err := resolve(k.keyID)
		if err != nil {
			return Column{}, err
		}
		minChunk, at := cryptoParMinCells, groups[k]
		if k.scheme == algebra.SchemePaillier {
			minChunk = cryptoParMinPaillier
		}
		err = runChunks(len(at), e.cryptoWorkers(), minChunk, func(lo, hi int) error {
			return decryptAt(ring, k.scheme, vals, at[lo:hi])
		})
		if err != nil {
			return Column{}, err
		}
	}
	return NewColumn(vals), nil
}

// decryptAt batch-decrypts the cells of vals at positions at, ciphertexts
// under one scheme and key, in place. Paillier cells decrypt through
// Paillier.DecryptBatch, several per exponentiation; the other schemes
// through decryptBytesInto.
func decryptAt(ring *crypto.KeyRing, scheme algebra.Scheme, vals []Value, at []int) error {
	if scheme == algebra.SchemePaillier {
		pk, err := pheDecrypter(ring)
		if err != nil {
			return err
		}
		cts := make([]*big.Int, len(at))
		for i, p := range at {
			cts[i] = vals[p].C.Phe
		}
		ms, err := pk.DecryptBatch(cts)
		if err != nil {
			return err
		}
		for i, p := range at {
			if vals[p], err = pheDecode(ms[i], vals[p].C.Div, vals[p].C.Plain); err != nil {
				return err
			}
		}
		return nil
	}
	cts := make([][]byte, len(at))
	plains := make([]Kind, len(at))
	for i, p := range at {
		cts[i], plains[i] = vals[p].C.Data, vals[p].C.Plain
	}
	out := make([]Value, len(at))
	if err := decryptBytesInto(ring, scheme, cts, plains, out); err != nil {
		return err
	}
	for i, p := range at {
		vals[p] = out[i]
	}
	return nil
}

// decryptBytesInto batch-decrypts one chunk of a ciphertext-byte column's
// payloads into dst.
func decryptBytesInto(ring *crypto.KeyRing, scheme algebra.Scheme, cts [][]byte, plains []Kind, dst []Value) error {
	switch scheme {
	case algebra.SchemeDeterministic, algebra.SchemeRandom:
		var (
			pts [][]byte
			err error
		)
		if scheme == algebra.SchemeDeterministic {
			d, derr := ring.Det()
			if derr != nil {
				return derr
			}
			pts, err = d.DecryptBatch(cts)
		} else {
			r, rerr := ring.Rnd()
			if rerr != nil {
				return rerr
			}
			pts, err = r.DecryptBatch(cts)
		}
		if err != nil {
			return err
		}
		for i := range pts {
			v, err := decodePlain(pts[i])
			if err != nil {
				return err
			}
			dst[i] = v
		}
		return nil
	case algebra.SchemeOPE:
		o, err := ring.OPE()
		if err != nil {
			return err
		}
		encs, err := o.DecryptBatch(cts)
		if err != nil {
			return err
		}
		for i := range encs {
			v, err := opeDecode(encs[i], plains[i])
			if err != nil {
				return err
			}
			dst[i] = v
		}
		return nil
	}
	return fmt.Errorf("exec: unknown scheme %q", scheme)
}

// pheDecrypter returns the ring's Paillier key if it can decrypt.
func pheDecrypter(ring *crypto.KeyRing) (*crypto.Paillier, error) {
	pk, err := ring.Paillier()
	if err != nil {
		return nil, err
	}
	if !pk.HasPrivate() {
		return nil, fmt.Errorf("exec: key %s lacks the Paillier private part", ring.ID)
	}
	return pk, nil
}
