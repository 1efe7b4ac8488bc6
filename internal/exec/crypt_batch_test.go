package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/crypto"
)

// mixedColumn builds a column of n values cycling through ints, floats,
// strings, and NULLs (numericOnly restricts it to the kinds OPE and
// Paillier accept).
func mixedColumn(n int, numericOnly bool) []Value {
	out := make([]Value, n)
	for i := range out {
		switch i % 4 {
		case 0:
			out[i] = Int(int64(i) - 3)
		case 1:
			out[i] = Float(float64(i) * 1.25)
		case 2:
			if numericOnly {
				out[i] = Int(int64(-i))
			} else {
				out[i] = String(fmt.Sprintf("value-%d", i))
			}
		default:
			if numericOnly {
				out[i] = Float(-0.5 * float64(i))
			} else {
				out[i] = Null()
			}
		}
	}
	return out
}

func schemeColumn(scheme algebra.Scheme, n int) []Value {
	numeric := scheme == algebra.SchemeOPE || scheme == algebra.SchemePaillier
	return mixedColumn(n, numeric)
}

// requireDecryptsTo decrypts cv with the ring and compares to want.
func requireDecryptsTo(t *testing.T, ring *crypto.KeyRing, cv Value, want Value) {
	t.Helper()
	if !cv.IsCipher() {
		t.Fatalf("expected ciphertext, got %v", cv)
	}
	got, err := decryptCipher(ring, cv.C)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("decrypt = %v, want %v", got, want)
	}
}

// TestEncryptColumnEquivalence proves the batch entry point, and
// EncryptValue's one-cell batch, match the per-value path on every scheme:
// bit-identical ciphertexts for the deterministic schemes, decrypt-identical
// for the randomized ones — across empty batches, NULLs, and batch sizes 1 and 7 (size 1M runs in
// TestBatchMillionRows).
func TestEncryptColumnEquivalence(t *testing.T) {
	ring, err := crypto.NewKeyRing("k1", testPaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	schemes := []algebra.Scheme{
		algebra.SchemeDeterministic, algebra.SchemeRandom,
		algebra.SchemeOPE, algebra.SchemePaillier,
	}
	for _, scheme := range schemes {
		for _, n := range []int{0, 1, 7, 100} {
			t.Run(fmt.Sprintf("%s/%d", scheme, n), func(t *testing.T) {
				vals := schemeColumn(scheme, n)
				got, err := EncryptColumn(ring, scheme, vals)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != n {
					t.Fatalf("batch returned %d values for %d inputs", len(got), n)
				}
				for i, v := range vals {
					want, err := encryptValueRef(ring, scheme, v)
					if err != nil {
						t.Fatal(err)
					}
					one, err := EncryptValue(ring, scheme, v)
					if err != nil {
						t.Fatal(err)
					}
					for _, c := range []Value{got[i], one} {
						switch scheme {
						case algebra.SchemeDeterministic, algebra.SchemeOPE:
							// Deterministic schemes: byte-identical.
							if string(c.C.Data) != string(want.C.Data) {
								t.Fatalf("batch ciphertext %d differs from per-value path", i)
							}
							if c.C.Plain != want.C.Plain || c.C.KeyID != want.C.KeyID {
								t.Fatalf("batch cipher metadata %d differs", i)
							}
						}
						// All schemes: decrypts to the original value.
						requireDecryptsTo(t, ring, c, v)
					}
				}
			})
		}
	}
}

// TestDecryptTableEquivalence proves batch decryption (grouped by scheme and
// key, mixed plaintext cells passed through) matches the per-value path.
func TestDecryptTableEquivalence(t *testing.T) {
	ring1, _ := crypto.NewKeyRing("k1", testPaillierBits)
	ring2, _ := crypto.NewKeyRing("k2", testPaillierBits)
	e := NewExecutor()
	e.Keys.Add(ring1)
	e.Keys.Add(ring2)

	// Rows mixing plaintext cells with ciphers of all four schemes under
	// two distinct keys.
	var rows [][]Value
	for i := 0; i < 40; i++ {
		ring := ring1
		if i%3 == 0 {
			ring = ring2
		}
		det, err := EncryptValue(ring, algebra.SchemeDeterministic, String(fmt.Sprintf("s%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rnd, err := EncryptValue(ring, algebra.SchemeRandom, Int(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ope, err := EncryptValue(ring, algebra.SchemeOPE, Float(float64(i)/2))
		if err != nil {
			t.Fatal(err)
		}
		phe, err := EncryptValue(ring, algebra.SchemePaillier, Int(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, []Value{Int(int64(i)), det, rnd, Null(), ope, phe, String("plain")})
	}

	tbl := &Table{Schema: make([]algebra.Attr, len(rows[0])), Rows: rows}
	dec, err := e.DecryptTable(tbl)
	if err != nil {
		t.Fatal(err)
	}
	got := dec.Rows
	if len(got) != len(rows) {
		t.Fatalf("row counts differ: %d vs %d", len(got), len(rows))
	}
	for ri, row := range rows {
		for ci, want := range row {
			if want.IsCipher() {
				if want, err = e.DecryptValue(want.C); err != nil {
					t.Fatal(err)
				}
			}
			if got[ri][ci] != want {
				t.Fatalf("row %d col %d: batch %v, per-value %v", ri, ci, got[ri][ci], want)
			}
		}
	}
	// Inputs untouched: the ciphers must still be ciphers.
	if !rows[0][1].IsCipher() {
		t.Fatalf("DecryptTable mutated its input")
	}
}

// TestDecryptColumnMixedKeys decrypts one generic column mixing plaintext
// cells, NULLs and ciphertexts of three schemes under two keys, with a
// forced worker pool so each Paillier group splits into chunks decrypted
// at once: every cipher cell decrypts to its plaintext, every plaintext
// cell passes through, and the input column is left as it was.
func TestDecryptColumnMixedKeys(t *testing.T) {
	ring1, _ := crypto.NewKeyRing("k1", testPaillierBits)
	ring2, _ := crypto.NewKeyRing("k2", testPaillierBits)
	e := NewExecutor()
	e.Keys.Add(ring1)
	e.Keys.Add(ring2)
	e.CryptoWorkers = 4
	var cells, want []Value
	for i := 0; i < 256; i++ {
		v := Int(int64(i))
		ring := ring1
		if i/4%2 == 1 {
			ring = ring2
		}
		var scheme algebra.Scheme
		switch i % 4 {
		case 0:
			if i%8 == 0 {
				v = Null()
			}
			cells, want = append(cells, v), append(want, v)
			continue
		case 1:
			scheme = algebra.SchemeDeterministic
		case 2:
			scheme = algebra.SchemeOPE
		case 3:
			scheme = algebra.SchemePaillier
		}
		ct, err := EncryptValue(ring, scheme, v)
		if err != nil {
			t.Fatal(err)
		}
		cells, want = append(cells, ct), append(want, v)
	}
	col := NewColumn(cells)
	if col.Kind != ColAny {
		t.Fatalf("mixed column laid out as %d, want ColAny", col.Kind)
	}
	got, err := e.decryptColumn(&col, e.Keys.Get)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if g := got.Value(i); g != w {
			t.Fatalf("cell %d: %v, want %v", i, g, w)
		}
		if col.Vals[i] != cells[i] {
			t.Fatalf("decryptColumn mutated input cell %d", i)
		}
	}
}

// TestEncryptColumnWorkerPool runs the batch path with a forced worker pool
// (CryptoWorkers > GOMAXPROCS is allowed so -race exercises real
// concurrency even on one core) and checks results against the per-value
// path.
func TestEncryptColumnWorkerPool(t *testing.T) {
	ring, err := crypto.NewKeyRing("k1", testPaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor()
	e.Keys.Add(ring)
	e.CryptoWorkers = 4

	const n = 4 * cryptoParMinCells // large enough that runChunks fans out
	for _, scheme := range []algebra.Scheme{algebra.SchemeDeterministic, algebra.SchemeRandom, algebra.SchemeOPE} {
		vals := schemeColumn(scheme, n)
		dst := make([]Value, n)
		if err := encryptColumnPar(e, ring, scheme, vals, dst); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i += 97 {
			requireDecryptsTo(t, ring, dst[i], vals[i])
		}
		// And decrypt the column back through the pooled batch path.
		rows := make([][]Value, n)
		for i := range rows {
			rows[i] = []Value{dst[i]}
		}
		back, err := e.DecryptTable(&Table{Schema: make([]algebra.Attr, 1), Rows: rows})
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range back.Rows {
			if row[0] != vals[i] {
				t.Fatalf("%s pooled round trip row %d = %v, want %v", scheme, i, row[0], vals[i])
			}
		}
	}
	// Paillier with the pool (its fan-out threshold is lower).
	vals := schemeColumn(algebra.SchemePaillier, 64)
	dst := make([]Value, len(vals))
	if err := encryptColumnPar(e, ring, algebra.SchemePaillier, vals, dst); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		requireDecryptsTo(t, ring, dst[i], vals[i])
	}
}

// TestBatchMillionRows is the 1M-cell batch-size case: encrypt and decrypt
// a million-value column through the batched path with the worker pool
// enabled and spot-check equivalence against the per-value path.
func TestBatchMillionRows(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-cell batch in -short mode")
	}
	ring, err := crypto.NewKeyRing("k1", testPaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor()
	e.Keys.Add(ring)
	e.CryptoWorkers = 4

	const n = 1 << 20
	vals := mixedColumn(n, false)
	dst := make([]Value, n)
	if err := encryptColumnPar(e, ring, algebra.SchemeRandom, vals, dst); err != nil {
		t.Fatal(err)
	}
	col := NewColumn(dst)
	back, err := e.decryptColumn(&col, e.Keys.Get)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 10007 {
		if v := back.Value(i); v != vals[i] {
			t.Fatalf("row %d = %v, want %v", i, v, vals[i])
		}
	}
	// Deterministic 1M: batch output must be bit-identical to the
	// per-value path (spot-checked).
	det := make([]Value, n)
	if err := encryptColumnPar(e, ring, algebra.SchemeDeterministic, vals, det); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 50021 {
		want, err := encryptValueRef(ring, algebra.SchemeDeterministic, vals[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(det[i].C.Data) != string(want.C.Data) {
			t.Fatalf("det 1M cell %d differs from per-value path", i)
		}
	}
}

// TestEncryptOpBatchVsValueCrypto runs an Encrypt plan and an
// Encrypt→Decrypt plan through the batch operators, with and without the
// crypto worker pool, and checks them cell by cell against direct
// per-value calls: every ciphertext is encryptValueRef's (deterministic and
// OPE encryption are functions of the plaintext), DecryptValue takes it
// back to the plaintext, and the round trip returns the input.
func TestEncryptOpBatchVsValueCrypto(t *testing.T) {
	ring, err := crypto.NewKeyRing("k1", testPaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	a, bAttr := algebra.A("R", "a"), algebra.A("R", "b")
	schemes := []algebra.Scheme{algebra.SchemeOPE, algebra.SchemeDeterministic}
	tbl := NewTable([]algebra.Attr{a, bAttr})
	for i := 0; i < 500; i++ {
		tbl.Rows = append(tbl.Rows, []Value{Int(int64(i % 17)), String(fmt.Sprintf("v%d", i))})
	}
	for _, workers := range []int{1, 4} {
		e := NewExecutor()
		e.Keys.Add(ring)
		e.CryptoWorkers = workers
		e.Tables["R"] = tbl
		base := algebra.NewBase("R", "A", tbl.Schema, float64(tbl.Len()), nil)
		enc := algebra.NewEncrypt(base, tbl.Schema)
		for i, attr := range tbl.Schema {
			enc.Schemes[attr] = schemes[i]
			enc.KeyIDs[attr] = "k1"
		}
		cipher, err := e.Run(enc)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := e.Run(algebra.NewDecrypt(enc, tbl.Schema))
		if err != nil {
			t.Fatal(err)
		}
		if cipher.Len() != tbl.Len() || plain.Len() != tbl.Len() {
			t.Fatalf("workers=%d: %d and %d rows, want %d", workers, cipher.Len(), plain.Len(), tbl.Len())
		}
		for ri, row := range tbl.Rows {
			for ci, v := range row {
				want, err := encryptValueRef(ring, schemes[ci], v)
				if err != nil {
					t.Fatal(err)
				}
				got := cipher.Rows[ri][ci]
				if !got.IsCipher() || string(got.C.Data) != string(want.C.Data) {
					t.Fatalf("workers=%d: row %d col %d = %v, the per-value path gives %v", workers, ri, ci, got, want)
				}
				back, err := e.DecryptValue(got.C)
				if err != nil || back != v || plain.Rows[ri][ci] != v {
					t.Fatalf("workers=%d: row %d col %d decrypts to %v (%v) and %v, want %v", workers, ri, ci, back, err, plain.Rows[ri][ci], v)
				}
			}
		}
	}
}

// TestDecryptOpErrors: the batch operators refuse what the per-value calls
// refuse. Decrypting a plaintext column errors (DecryptValue takes only a
// ciphertext), and so does encrypting an already encrypted column, as
// EncryptValue does on a ciphertext.
func TestDecryptOpErrors(t *testing.T) {
	ring, _ := crypto.NewKeyRing("k1", testPaillierBits)
	a := algebra.A("R", "a")
	run := func(cell Value, wrap func(algebra.Node) algebra.Node) error {
		e := NewExecutor()
		e.Keys.Add(ring)
		tbl := NewTable([]algebra.Attr{a})
		tbl.Rows = append(tbl.Rows, []Value{cell})
		e.Tables["R"] = tbl
		_, err := e.Run(wrap(algebra.NewBase("R", "A", tbl.Schema, float64(tbl.Len()), nil)))
		return err
	}
	if err := run(Int(7), func(n algebra.Node) algebra.Node { return algebra.NewDecrypt(n, n.Schema()) }); err == nil {
		t.Error("decrypting plaintext succeeded")
	}

	cv, err := EncryptValue(ring, algebra.SchemeDeterministic, Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EncryptValue(ring, algebra.SchemeDeterministic, cv); err == nil {
		t.Error("EncryptValue re-encrypted a ciphertext")
	}
	err = run(cv, func(n algebra.Node) algebra.Node {
		enc := algebra.NewEncrypt(n, n.Schema())
		enc.Schemes[a] = algebra.SchemeDeterministic
		enc.KeyIDs[a] = "k1"
		return enc
	})
	if err == nil {
		t.Error("re-encryption succeeded")
	}
}

// TestRunChunksBalanced records every (lo, hi) runChunks hands out: the
// chunks are disjoint, cover [0, n), number at most `workers`, and each
// holds at least minChunk cells whenever there is more than one. A ceiling
// split cut n = 49 on 3 workers into 17/17/15, leaving a 15-cell Paillier
// chunk below the 16-cell threshold that builds the randomizer tables.
func TestRunChunksBalanced(t *testing.T) {
	for _, minChunk := range []int{1, 5, cryptoParMinPaillier} {
		for n := minChunk; n <= 10*minChunk; n++ {
			for workers := 1; workers <= 8; workers++ {
				var mu sync.Mutex
				var chunks [][2]int
				if err := runChunks(n, workers, minChunk, func(lo, hi int) error {
					mu.Lock()
					chunks = append(chunks, [2]int{lo, hi})
					mu.Unlock()
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				sort.Slice(chunks, func(i, j int) bool { return chunks[i][0] < chunks[j][0] })
				if len(chunks) > workers {
					t.Errorf("n=%d workers=%d minChunk=%d: %d chunks", n, workers, minChunk, len(chunks))
				}
				next := 0
				for _, c := range chunks {
					if c[0] != next || c[1] <= c[0] {
						t.Errorf("n=%d workers=%d minChunk=%d: chunks %v overlap or leave a gap", n, workers, minChunk, chunks)
						break
					}
					if len(chunks) > 1 && c[1]-c[0] < minChunk {
						t.Errorf("n=%d workers=%d minChunk=%d: chunks %v cut one below minChunk", n, workers, minChunk, chunks)
						break
					}
					next = c[1]
				}
				if next != n {
					t.Errorf("n=%d workers=%d minChunk=%d: chunks %v do not cover [0, n)", n, workers, minChunk, chunks)
				}
			}
		}
	}
}

// DecryptValue decrypts one ciphertext with the executor's keys, value by
// value: the oracle the batched decryption path is checked against.
func (e *Executor) DecryptValue(c *Cipher) (Value, error) {
	ring, err := e.Keys.Get(c.KeyID)
	if err != nil {
		return Value{}, err
	}
	return decryptCipher(ring, c)
}

// decryptCipher decrypts one ciphertext with an already-resolved key ring.
func decryptCipher(ring *crypto.KeyRing, c *Cipher) (Value, error) {
	switch c.Scheme {
	case algebra.SchemeDeterministic:
		d, err := ring.Det()
		if err != nil {
			return Value{}, err
		}
		pt, err := d.Decrypt(c.Data)
		if err != nil {
			return Value{}, err
		}
		return decodePlain(pt)
	case algebra.SchemeRandom:
		r, err := ring.Rnd()
		if err != nil {
			return Value{}, err
		}
		pt, err := r.Decrypt(c.Data)
		if err != nil {
			return Value{}, err
		}
		return decodePlain(pt)
	case algebra.SchemeOPE:
		o, err := ring.OPE()
		if err != nil {
			return Value{}, err
		}
		enc, err := o.Decrypt(c.Data)
		if err != nil {
			return Value{}, err
		}
		return opeDecode(enc, c.Plain)
	case algebra.SchemePaillier:
		pk, err := pheDecrypter(ring)
		if err != nil {
			return Value{}, err
		}
		m, err := pk.Decrypt(c.Phe)
		if err != nil {
			return Value{}, err
		}
		return pheDecode(m, c.Div, c.Plain)
	}
	return Value{}, fmt.Errorf("exec: unknown scheme %q", c.Scheme)
}

// EncryptColumn encrypts a column of plaintext values under one scheme with
// one key ring, the batch counterpart of per-value encryption.
func EncryptColumn(ring *crypto.KeyRing, scheme algebra.Scheme, vals []Value) ([]Value, error) {
	out := make([]Value, len(vals))
	if err := encryptColumnInto(ring, scheme, vals, out); err != nil {
		return nil, err
	}
	return out, nil
}

// encryptValueRef encrypts one plaintext value through its scheme's
// per-value crypto call: the oracle the batch encryption path (and
// EncryptValue, a one-cell batch) is checked against.
func encryptValueRef(ring *crypto.KeyRing, scheme algebra.Scheme, v Value) (Value, error) {
	c := &Cipher{Scheme: scheme, KeyID: ring.ID, Plain: v.Kind}
	switch scheme {
	case algebra.SchemeDeterministic:
		d, err := ring.Det()
		if err != nil {
			return Value{}, err
		}
		pt, err := encodePlain(v)
		if err != nil {
			return Value{}, err
		}
		ct, err := d.Encrypt(pt)
		if err != nil {
			return Value{}, err
		}
		c.Data = ct
	case algebra.SchemeRandom:
		r, err := ring.Rnd()
		if err != nil {
			return Value{}, err
		}
		pt, err := encodePlain(v)
		if err != nil {
			return Value{}, err
		}
		ct, err := r.Encrypt(pt)
		if err != nil {
			return Value{}, err
		}
		c.Data = ct
	case algebra.SchemeOPE:
		o, err := ring.OPE()
		if err != nil {
			return Value{}, err
		}
		enc, err := opeEncode(v)
		if err != nil {
			return Value{}, err
		}
		c.Data = o.Encrypt(enc)
	case algebra.SchemePaillier:
		pk, err := ring.Paillier()
		if err != nil {
			return Value{}, err
		}
		m, err := pheEncode(v)
		if err != nil {
			return Value{}, err
		}
		ct, err := pk.Encrypt(m)
		if err != nil {
			return Value{}, err
		}
		c.Phe = ct
		c.Div = 1
	default:
		return Value{}, fmt.Errorf("exec: unknown scheme %q", scheme)
	}
	return Enc(c), nil
}

// encodePlain serializes a plaintext value for symmetric encryption, one
// buffer per value: the oracle of writePlain's arena slots.
func encodePlain(v Value) ([]byte, error) {
	switch v.Kind {
	case KInt:
		buf := make([]byte, 9)
		buf[0] = byte(KInt)
		binary.BigEndian.PutUint64(buf[1:], uint64(v.I))
		return buf, nil
	case KFloat:
		buf := make([]byte, 9)
		buf[0] = byte(KFloat)
		binary.BigEndian.PutUint64(buf[1:], math.Float64bits(v.F))
		return buf, nil
	case KString:
		return append([]byte{byte(KString)}, v.S...), nil
	case KNull:
		return []byte{byte(KNull)}, nil
	}
	return nil, fmt.Errorf("exec: cannot encode %v", v)
}
