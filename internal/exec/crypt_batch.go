package exec

import (
	"fmt"
	"math/big"
	"runtime"
	"sync"

	"mpq/internal/algebra"
	"mpq/internal/crypto"
)

// The batch crypto path. The per-value EncryptValue/DecryptValue calls
// resolve the ring's cipher, allocate an encoding, and build cipher state
// for every cell; the column-wise entry points below amortize all of it
// per batch — one cipher resolution, one encoding arena, one batched call
// into internal/crypto — and optionally split large columns across an
// intra-batch worker pool. The per-value path remains only inside the
// row-at-a-time reference evaluator, and every batch result is
// bit-identical to it for the deterministic schemes, decrypt-identical for
// the randomized ones.

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

// EncryptColumn encrypts a column of plaintext values under one scheme with
// one key ring, the batch counterpart of per-value EncryptValue calls.
// Deterministic and OPE outputs are bit-identical to EncryptValue;
// randomized and Paillier outputs decrypt to the same plaintexts.
func EncryptColumn(ring *crypto.KeyRing, scheme algebra.Scheme, vals []Value) ([]Value, error) {
	out := make([]Value, len(vals))
	if err := encryptColumnInto(ring, scheme, vals, out); err != nil {
		return nil, err
	}
	return out, nil
}

// encryptColumnPar is EncryptColumn with the executor's intra-batch worker
// pool applied to large columns.
func encryptColumnPar(e *Executor, ring *crypto.KeyRing, scheme algebra.Scheme, vals, dst []Value) error {
	minChunk := cryptoParMinCells
	if scheme == algebra.SchemePaillier {
		minChunk = cryptoParMinPaillier
	}
	return runChunks(len(vals), e.cryptoWorkers(), minChunk, func(lo, hi int) error {
		return encryptColumnInto(ring, scheme, vals[lo:hi], dst[lo:hi])
	})
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

// cell addresses one encrypted value inside a batch of rows.
type cell struct{ ri, ci int }

// cipherGroup collects the cells of one batch sharing a scheme and key, so
// they decrypt through one batched call.
type cipherGroup struct {
	scheme algebra.Scheme
	keyID  string
	cells  []cell
}

type groupKeyID struct {
	scheme algebra.Scheme
	keyID  string
}

// groupCipherCells partitions the cipher cells of the given columns (nil =
// every cipher cell of every row) by scheme and key id.
func groupCipherCells(rows [][]Value, cols []int) []*cipherGroup {
	groups := make(map[groupKeyID]*cipherGroup)
	var order []*cipherGroup
	add := func(ri, ci int, c *Cipher) {
		k := groupKeyID{c.Scheme, c.KeyID}
		g, ok := groups[k]
		if !ok {
			g = &cipherGroup{scheme: c.Scheme, keyID: c.KeyID}
			groups[k] = g
			order = append(order, g)
		}
		g.cells = append(g.cells, cell{ri, ci})
	}
	if cols == nil {
		for ri, row := range rows {
			for ci, v := range row {
				if v.IsCipher() {
					add(ri, ci, v.C)
				}
			}
		}
		return order
	}
	for _, ci := range cols {
		for ri, row := range rows {
			if ci < len(row) && row[ci].IsCipher() {
				add(ri, ci, row[ci].C)
			}
		}
	}
	return order
}

// decryptGroup decrypts one scheme/key group of cells in place, fanning
// large groups out to the worker pool.
func (e *Executor) decryptGroup(ring *crypto.KeyRing, g *cipherGroup, rows [][]Value) error {
	minChunk := cryptoParMinCells
	if g.scheme == algebra.SchemePaillier {
		minChunk = cryptoParMinPaillier
	}
	return runChunks(len(g.cells), e.cryptoWorkers(), minChunk, func(lo, hi int) error {
		return decryptCells(ring, g.scheme, g.cells[lo:hi], rows)
	})
}

// decryptCells batch-decrypts one chunk of same-scheme, same-key cells,
// writing plaintext values back into rows.
func decryptCells(ring *crypto.KeyRing, scheme algebra.Scheme, cells []cell, rows [][]Value) error {
	switch scheme {
	case algebra.SchemeDeterministic, algebra.SchemeRandom:
		cts := make([][]byte, len(cells))
		for i, c := range cells {
			cts[i] = rows[c.ri][c.ci].C.Data
		}
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
		for i, c := range cells {
			v, err := decodePlain(pts[i])
			if err != nil {
				return err
			}
			rows[c.ri][c.ci] = v
		}
	case algebra.SchemeOPE:
		o, err := ring.OPE()
		if err != nil {
			return err
		}
		cts := make([][]byte, len(cells))
		for i, c := range cells {
			cts[i] = rows[c.ri][c.ci].C.Data
		}
		encs, err := o.DecryptBatch(cts)
		if err != nil {
			return err
		}
		for i, c := range cells {
			v, err := opeDecode(encs[i], rows[c.ri][c.ci].C.Plain)
			if err != nil {
				return err
			}
			rows[c.ri][c.ci] = v
		}
	case algebra.SchemePaillier:
		pk, err := pheDecrypter(ring)
		if err != nil {
			return err
		}
		for _, c := range cells {
			ct := rows[c.ri][c.ci].C
			m, err := pk.Decrypt(ct.Phe)
			if err != nil {
				return err
			}
			v, err := pheDecode(m, ct.Div, ct.Plain)
			if err != nil {
				return err
			}
			rows[c.ri][c.ci] = v
		}
	default:
		return fmt.Errorf("exec: unknown scheme %q", scheme)
	}
	return nil
}

// decryptColumn decrypts one cipher column into its replacement plaintext
// column. A ciphertext-byte column decrypts straight off its payload vector
// — the scheme and key are column metadata, so there is nothing to group —
// while a generic column's cells are grouped by scheme and key first.
// Large columns fan out to the intra-batch worker pool. The caller has
// already verified every cell is a ciphertext.
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
	copy(vals, col.Vals)
	// Group cell positions by scheme and key, then decrypt each group
	// batch-wise in place.
	type posGroup struct {
		scheme algebra.Scheme
		keyID  string
		pos    []int32
	}
	groups := make(map[groupKeyID]*posGroup)
	var order []*posGroup
	for i := range vals {
		c := vals[i].C
		k := groupKeyID{c.Scheme, c.KeyID}
		g, ok := groups[k]
		if !ok {
			g = &posGroup{scheme: c.Scheme, keyID: c.KeyID}
			groups[k] = g
			order = append(order, g)
		}
		g.pos = append(g.pos, int32(i))
	}
	for _, g := range order {
		ring, err := resolve(g.keyID)
		if err != nil {
			return Column{}, err
		}
		minChunk := cryptoParMinCells
		if g.scheme == algebra.SchemePaillier {
			minChunk = cryptoParMinPaillier
		}
		err = runChunks(len(g.pos), e.cryptoWorkers(), minChunk, func(lo, hi int) error {
			return decryptPosCells(ring, g.scheme, g.pos[lo:hi], vals)
		})
		if err != nil {
			return Column{}, err
		}
	}
	return NewColumn(vals), nil
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

// decryptPosCells batch-decrypts one chunk of same-scheme, same-key cells
// of a generic column in place (pos indexes vals).
func decryptPosCells(ring *crypto.KeyRing, scheme algebra.Scheme, pos []int32, vals []Value) error {
	switch scheme {
	case algebra.SchemeDeterministic, algebra.SchemeRandom, algebra.SchemeOPE:
		cts := make([][]byte, len(pos))
		for i, p := range pos {
			cts[i] = vals[p].C.Data
		}
		var plains []Kind
		if scheme == algebra.SchemeOPE {
			plains = make([]Kind, len(pos))
			for i, p := range pos {
				plains[i] = vals[p].C.Plain
			}
		}
		out := make([]Value, len(pos))
		if err := decryptBytesInto(ring, scheme, cts, plains, out); err != nil {
			return err
		}
		for i, p := range pos {
			vals[p] = out[i]
		}
		return nil
	case algebra.SchemePaillier:
		pk, err := pheDecrypter(ring)
		if err != nil {
			return err
		}
		for _, p := range pos {
			ct := vals[p].C
			m, err := pk.Decrypt(ct.Phe)
			if err != nil {
				return err
			}
			v, err := pheDecode(m, ct.Div, ct.Plain)
			if err != nil {
				return err
			}
			vals[p] = v
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

// decryptGroups resolves each group's ring through resolve and decrypts all
// groups in place.
func (e *Executor) decryptGroups(groups []*cipherGroup, rows [][]Value, resolve func(string) (*crypto.KeyRing, error)) error {
	for _, g := range groups {
		ring, err := resolve(g.keyID)
		if err != nil {
			return err
		}
		if err := e.decryptGroup(ring, g, rows); err != nil {
			return err
		}
	}
	return nil
}

// DecryptRows returns a copy of the rows with every ciphertext decrypted
// using the executor's keys, leaving the input untouched (it may alias
// upstream storage). It is the batch counterpart of per-value DecryptValue
// over a row window: ciphers are grouped by scheme and key and decrypted
// column-batch-wise, with large batches fanned out to the worker pool.
func (e *Executor) DecryptRows(rows [][]Value) ([][]Value, error) {
	out := make([][]Value, len(rows))
	for ri, row := range rows {
		out[ri] = append(make([]Value, 0, len(row)), row...)
	}
	if err := e.decryptGroups(groupCipherCells(out, nil), out, e.Keys.Get); err != nil {
		return nil, err
	}
	return out, nil
}
