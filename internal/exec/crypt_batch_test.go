package exec

import (
	"fmt"
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

// TestEncryptColumnEquivalence proves the batch entry point matches the
// per-value path on every scheme: bit-identical ciphertexts for the
// deterministic schemes, decrypt-identical for the randomized ones —
// across empty batches, NULLs, and batch sizes 1 and 7 (size 1M runs in
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
					want, err := EncryptValue(ring, scheme, v)
					if err != nil {
						t.Fatal(err)
					}
					switch scheme {
					case algebra.SchemeDeterministic, algebra.SchemeOPE:
						// Deterministic schemes: byte-identical.
						if string(got[i].C.Data) != string(want.C.Data) {
							t.Fatalf("batch ciphertext %d differs from per-value path", i)
						}
						if got[i].C.Plain != want.C.Plain || got[i].C.KeyID != want.C.KeyID {
							t.Fatalf("batch cipher metadata %d differs", i)
						}
					}
					// All schemes: decrypts to the original value.
					requireDecryptsTo(t, ring, got[i], v)
				}
			})
		}
	}
}

// TestDecryptRowsEquivalence proves batch decryption (grouped by scheme and
// key, mixed plaintext cells passed through) matches the per-value path.
func TestDecryptRowsEquivalence(t *testing.T) {
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

	got, err := e.DecryptRows(rows)
	if err != nil {
		t.Fatal(err)
	}
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
		t.Fatalf("DecryptRows mutated its input")
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
		back, err := e.DecryptRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		for i := range back {
			if back[i][0] != vals[i] {
				t.Fatalf("%s pooled round trip row %d = %v, want %v", scheme, i, back[i][0], vals[i])
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
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = dst[i : i+1]
	}
	back, err := e.DecryptRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 10007 {
		if back[i][0] != vals[i] {
			t.Fatalf("row %d = %v, want %v", i, back[i][0], vals[i])
		}
	}
	// Deterministic 1M: batch output must be bit-identical to the
	// per-value path (spot-checked).
	det := make([]Value, n)
	if err := encryptColumnPar(e, ring, algebra.SchemeDeterministic, vals, det); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 50021 {
		want, err := EncryptValue(ring, algebra.SchemeDeterministic, vals[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(det[i].C.Data) != string(want.C.Data) {
			t.Fatalf("det 1M cell %d differs from per-value path", i)
		}
	}
}

// TestEncryptOpBatchVsValueCrypto runs an Encrypt→Decrypt plan through the
// batch operators, with and without the crypto worker pool, and diffs the
// results row for row against the row-at-a-time evaluator, which encrypts
// and decrypts value by value.
func TestEncryptOpBatchVsValueCrypto(t *testing.T) {
	ring, err := crypto.NewKeyRing("k1", testPaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	run := func(rowEvaluator bool, workers int) *Table {
		t.Helper()
		e := NewExecutor()
		e.Keys.Add(ring)
		e.Materializing = rowEvaluator
		e.CryptoWorkers = workers
		a, bAttr := algebra.A("R", "a"), algebra.A("R", "b")
		tbl := NewTable([]algebra.Attr{a, bAttr})
		for i := 0; i < 500; i++ {
			tbl.Rows = append(tbl.Rows, []Value{Int(int64(i % 17)), String(fmt.Sprintf("v%d", i))})
		}
		e.Tables["R"] = tbl
		base := algebra.NewBase("R", "A", tbl.Schema, float64(tbl.Len()), nil)
		enc := algebra.NewEncrypt(base, tbl.Schema)
		enc.Schemes[a] = algebra.SchemeOPE
		enc.Schemes[bAttr] = algebra.SchemeDeterministic
		enc.KeyIDs[a] = "k1"
		enc.KeyIDs[bAttr] = "k1"
		dec := algebra.NewDecrypt(enc, tbl.Schema)
		out, err := e.Run(dec)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(true, 1)
	for _, workers := range []int{1, 4} {
		got := run(false, workers)
		if got.Len() != want.Len() {
			t.Fatalf("workers=%d: %d rows, want %d", workers, got.Len(), want.Len())
		}
		for ri := range got.Rows {
			for ci := range got.Rows[ri] {
				if got.Rows[ri][ci] != want.Rows[ri][ci] {
					t.Fatalf("workers=%d: row %d col %d = %v, want %v", workers, ri, ci, got.Rows[ri][ci], want.Rows[ri][ci])
				}
			}
		}
	}
}

// TestDecryptOpErrors keeps the operator-level error contract of the batch
// path identical to the row-at-a-time evaluator's per-value path.
func TestDecryptOpErrors(t *testing.T) {
	ring, _ := crypto.NewKeyRing("k1", testPaillierBits)
	a := algebra.A("R", "a")
	for _, rowEvaluator := range []bool{false, true} {
		// Decrypting a plaintext column errors on both paths.
		e := NewExecutor()
		e.Keys.Add(ring)
		e.Materializing = rowEvaluator
		tbl := NewTable([]algebra.Attr{a})
		tbl.Rows = append(tbl.Rows, []Value{Int(7)})
		e.Tables["R"] = tbl
		base := algebra.NewBase("R", "A", tbl.Schema, float64(tbl.Len()), nil)
		dec := algebra.NewDecrypt(base, tbl.Schema)
		if _, err := e.Run(dec); err == nil {
			t.Errorf("rowEvaluator=%v: decrypting plaintext succeeded", rowEvaluator)
		}

		// Re-encryption of an already encrypted column errors on both paths.
		e2 := NewExecutor()
		e2.Keys.Add(ring)
		e2.Materializing = rowEvaluator
		tbl2 := NewTable([]algebra.Attr{a})
		cv, err := EncryptValue(ring, algebra.SchemeDeterministic, Int(1))
		if err != nil {
			t.Fatal(err)
		}
		tbl2.Rows = append(tbl2.Rows, []Value{cv})
		e2.Tables["R"] = tbl2
		base2 := algebra.NewBase("R", "A", tbl2.Schema, float64(tbl2.Len()), nil)
		enc := algebra.NewEncrypt(base2, tbl2.Schema)
		enc.Schemes[a] = algebra.SchemeDeterministic
		enc.KeyIDs[a] = "k1"
		if _, err := e2.Run(enc); err == nil {
			t.Errorf("rowEvaluator=%v: re-encryption succeeded", rowEvaluator)
		}
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
