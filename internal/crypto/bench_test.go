package crypto

import (
	"math/big"
	"testing"
)

// Crypto microbenchmarks: the per-value entry points against the batched
// ones, and Paillier with and without its randomizer tables. Recorded
// per-value costs are bench's crypto.*_ns_per_value.

const benchBatch = 1024

func benchPlaintext() []byte { return []byte{1, 0, 0, 0, 0, 0, 0, 0, 42} }

func benchPlaintexts(n int) [][]byte {
	pts := make([][]byte, n)
	for i := range pts {
		pts[i] = benchPlaintext()
	}
	return pts
}

func BenchmarkDetEncryptValue(b *testing.B) {
	d, err := NewDeterministic(mustKey(b))
	if err != nil {
		b.Fatal(err)
	}
	pt := benchPlaintext()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.Encrypt(pt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetEncryptBatch(b *testing.B) {
	d, err := NewDeterministic(mustKey(b))
	if err != nil {
		b.Fatal(err)
	}
	pts := benchPlaintexts(benchBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += benchBatch {
		if _, err := d.EncryptBatch(pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRndEncryptValue(b *testing.B) {
	r, err := NewRandomized(mustKey(b))
	if err != nil {
		b.Fatal(err)
	}
	pt := benchPlaintext()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Encrypt(pt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRndEncryptBatch(b *testing.B) {
	r, err := NewRandomized(mustKey(b))
	if err != nil {
		b.Fatal(err)
	}
	pts := benchPlaintexts(benchBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += benchBatch {
		if _, err := r.EncryptBatch(pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetDecryptBatch(b *testing.B) {
	d, err := NewDeterministic(mustKey(b))
	if err != nil {
		b.Fatal(err)
	}
	cts, err := d.EncryptBatch(benchPlaintexts(benchBatch))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += benchBatch {
		if _, err := d.DecryptBatch(cts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOPEEncryptValue(b *testing.B) {
	o := NewOPE(mustKey(b))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Encrypt(EncodeInt(int64(i)))
	}
}

func BenchmarkOPEEncryptBatch(b *testing.B) {
	o := NewOPE(mustKey(b))
	pts := make([]uint64, benchBatch)
	for i := range pts {
		pts[i] = EncodeInt(int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += benchBatch {
		o.EncryptBatch(pts)
	}
}

// benchPaillierBits sizes the benchmark key at the production default, so
// the recorded figures are the ones a served query pays.
const benchPaillierBits = DefaultPaillierBits

func benchPaillierMessages(n int) []*big.Int {
	ms := make([]*big.Int, n)
	for i := range ms {
		ms[i] = big.NewInt(int64(i * 31))
	}
	return ms
}

func BenchmarkPaillierEncryptValue(b *testing.B) {
	pk, err := GeneratePaillier(benchPaillierBits)
	if err != nil {
		b.Fatal(err)
	}
	m := big.NewInt(123456)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pk.Encrypt(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPaillierEncryptBatch measures EncryptBatch with the randomizer
// tables built (sustained batch throughput).
func BenchmarkPaillierEncryptBatch(b *testing.B) {
	pk, err := GeneratePaillier(benchPaillierBits)
	if err != nil {
		b.Fatal(err)
	}
	if err := pk.Precompute(); err != nil {
		b.Fatal(err)
	}
	const batch = 64
	ms := benchPaillierMessages(batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		if _, err := pk.EncryptBatch(ms); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPaillierPrecompute measures the one-time table construction a
// released key pays on its next batch.
func BenchmarkPaillierPrecompute(b *testing.B) {
	pk, err := GeneratePaillier(benchPaillierBits)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk.ReleasePrecomputed()
		if err := pk.Precompute(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPaillierAddTo(b *testing.B) {
	pk, err := GeneratePaillier(benchPaillierBits)
	if err != nil {
		b.Fatal(err)
	}
	c, err := pk.Encrypt(big.NewInt(5))
	if err != nil {
		b.Fatal(err)
	}
	acc := new(big.Int).Set(c)
	var s AddScratch
	pk.AddTo(acc, c, &s) // grow the scratch and the accumulator once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk.AddTo(acc, c, &s)
	}
}

func mustKey(b *testing.B) []byte {
	b.Helper()
	k, err := NewKey()
	if err != nil {
		b.Fatal(err)
	}
	return k
}
