package exec

import (
	"fmt"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/crypto"
)

// BenchmarkEncryptValue vs BenchmarkEncryptBatch: the value-at-a-time
// operator path against the column-wise batch path, per scheme. The batch
// path additionally amortizes the exec-level costs — plaintext encoding
// arena, Cipher allocation, ring cipher resolution — on top of the crypto
// package's batched primitives.

const benchPaillierPrimeBits = 256

func benchRing(b *testing.B) *crypto.KeyRing {
	b.Helper()
	ring, err := crypto.NewKeyRing("kB", benchPaillierPrimeBits)
	if err != nil {
		b.Fatal(err)
	}
	return ring
}

func benchColumn(scheme algebra.Scheme, n int) []Value {
	numeric := scheme == algebra.SchemeOPE || scheme == algebra.SchemePaillier
	out := make([]Value, n)
	for i := range out {
		switch {
		case numeric || i%2 == 0:
			out[i] = Int(int64(i * 3))
		default:
			out[i] = String(fmt.Sprintf("cell-%d", i))
		}
	}
	return out
}

func benchSchemes() []algebra.Scheme {
	return []algebra.Scheme{
		algebra.SchemeDeterministic, algebra.SchemeRandom,
		algebra.SchemeOPE, algebra.SchemePaillier,
	}
}

func benchN(scheme algebra.Scheme, base int) int {
	if scheme == algebra.SchemePaillier {
		return base / 16 // Paillier cells are ~3 orders of magnitude dearer
	}
	return base
}

func BenchmarkEncryptValue(b *testing.B) {
	for _, scheme := range benchSchemes() {
		b.Run(string(scheme), func(b *testing.B) {
			ring := benchRing(b)
			vals := benchColumn(scheme, benchN(scheme, 1024))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(vals) {
				for _, v := range vals {
					if _, err := EncryptValue(ring, scheme, v); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkEncryptBatch(b *testing.B) {
	for _, scheme := range benchSchemes() {
		b.Run(string(scheme), func(b *testing.B) {
			ring := benchRing(b)
			vals := benchColumn(scheme, benchN(scheme, 1024))
			if scheme == algebra.SchemePaillier {
				if err := ring.PK.Precompute(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(vals) {
				if _, err := EncryptColumn(ring, scheme, vals); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecryptValue(b *testing.B) {
	for _, scheme := range benchSchemes() {
		b.Run(string(scheme), func(b *testing.B) {
			ring := benchRing(b)
			e := NewExecutor()
			e.Keys.Add(ring)
			rows := benchCipherRows(b, ring, scheme, benchN(scheme, 1024))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(rows) {
				for _, row := range rows {
					if _, err := e.DecryptValue(row[0].C); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkDecryptBatch(b *testing.B) {
	for _, scheme := range benchSchemes() {
		b.Run(string(scheme), func(b *testing.B) {
			ring := benchRing(b)
			e := NewExecutor()
			e.Keys.Add(ring)
			rows := benchCipherRows(b, ring, scheme, benchN(scheme, 1024))
			cells := make([]Value, len(rows))
			for i, row := range rows {
				cells[i] = row[0]
			}
			batch := &Batch{Cols: []Column{NewColumn(cells)}, N: len(cells)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(rows) {
				if _, err := e.DecryptBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchCipherRows(b *testing.B, ring *crypto.KeyRing, scheme algebra.Scheme, n int) [][]Value {
	b.Helper()
	col, err := EncryptColumn(ring, scheme, benchColumn(scheme, n))
	if err != nil {
		b.Fatal(err)
	}
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = col[i : i+1]
	}
	return rows
}
