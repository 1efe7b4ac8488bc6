package crypto

import (
	"bytes"
	"crypto/rand"
	"encoding/gob"
	"fmt"
	"math/big"
	"testing"
)

// textbookCopy strips the CRT state off a private key, forcing Decrypt onto
// the single full-width exponentiation (the path legacy wire blobs use).
func textbookCopy(p *Paillier) *Paillier {
	return &Paillier{N: p.N, N2: p.N2, G: p.G, lambda: p.lambda, mu: p.mu}
}

// TestPaillierCRTMatchesTextbook proves the CRT decryption is exactly
// equivalent to the textbook path on generated keys, across signs and
// magnitudes up to the message bound.
func TestPaillierCRTMatchesTextbook(t *testing.T) {
	pk, err := GeneratePaillier(96)
	if err != nil {
		t.Fatal(err)
	}
	if pk.p == nil {
		t.Fatal("generated key has no CRT state")
	}
	tb := textbookCopy(pk)
	half := new(big.Int).Rsh(pk.N, 1)
	msgs := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(-1),
		big.NewInt(1 << 40), big.NewInt(-(1 << 40)),
		new(big.Int).Sub(half, big.NewInt(1)),
		new(big.Int).Neg(new(big.Int).Sub(half, big.NewInt(1))),
	}
	for _, m := range msgs {
		c, err := pk.Encrypt(m)
		if err != nil {
			t.Fatal(err)
		}
		crt, err := pk.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := tb.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		if crt.Cmp(plain) != 0 || crt.Cmp(m) != 0 {
			t.Fatalf("m=%v: crt=%v textbook=%v", m, crt, plain)
		}
	}
}

// TestPaillierWireCRTRoundTrip checks that a marshaled full ring carries the
// factor across the wire and the unmarshaled key decrypts on the CRT path.
func TestPaillierWireCRTRoundTrip(t *testing.T) {
	kr, err := NewKeyRing("kCRT", 96)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := kr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalKeyRing(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.PK.p == nil {
		t.Fatal("wire ring lost the CRT factor")
	}
	c, _ := kr.PK.Encrypt(big.NewInt(-987654321))
	m, err := got.PK.Decrypt(c)
	if err != nil || m.Int64() != -987654321 {
		t.Fatalf("wire CRT decrypt = %v, %v", m, err)
	}
}

// TestPaillierLegacyBlobFallsBack decodes a blob without the factor field
// (what an older sender emits) and checks the key still decrypts, on the
// textbook path.
func TestPaillierLegacyBlobFallsBack(t *testing.T) {
	kr, err := NewKeyRing("kOld", 96)
	if err != nil {
		t.Fatal(err)
	}
	// A legacy sender's wire form: same struct, no P.
	type legacyRing struct {
		ID     string
		Master []byte
		N      *big.Int
		Lambda *big.Int
		Mu     *big.Int
	}
	w := legacyRing{ID: "kOld", Master: kr.Master, N: kr.PK.N, Lambda: kr.PK.lambda, Mu: kr.PK.mu}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalKeyRing(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.PK.p != nil {
		t.Fatal("legacy blob grew CRT state")
	}
	c, _ := kr.PK.Encrypt(big.NewInt(314159))
	m, err := got.PK.Decrypt(c)
	if err != nil || m.Int64() != 314159 {
		t.Fatalf("legacy decrypt = %v, %v", m, err)
	}
	// Without the factor there are no CRT tables: a batch encrypts on the
	// textbook path and both the legacy key and the original decrypt it.
	checkTextbookBatch(t, got.PK, got.PK)
	checkTextbookBatch(t, got.PK, kr.PK)
}

// checkTextbookBatch encrypts a 48-value batch with enc, requires that enc
// built no randomizer tables, and decrypts every value with holder.
func checkTextbookBatch(t *testing.T, enc, holder *Paillier) {
	t.Helper()
	ms := make([]*big.Int, 48)
	for i := range ms {
		ms[i] = big.NewInt(int64(i*7919 - 100000))
	}
	cts, err := enc.EncryptBatch(ms)
	if err != nil {
		t.Fatal(err)
	}
	if enc.Precomputed() {
		t.Fatal("key without its factorization built randomizer tables")
	}
	for i, m := range ms {
		got, err := holder.Decrypt(cts[i])
		if err != nil || got.Cmp(m) != 0 {
			t.Fatalf("Decrypt(batch[%d]) = %v, %v; want %v", i, got, err, m)
		}
	}
}

// TestPaillierCRTRandomizerMatchesFullWidth proves the half-width tables
// compute exactly what one full-width exponentiation over n² would: for one
// h, hn = h^n mod n² and every ρ checked, the CRT randomizer equals
// hn^ρ mod n² bit for bit, at a test size and at the production size.
func TestPaillierCRTRandomizerMatchesFullWidth(t *testing.T) {
	for _, bits := range []int{96, DefaultPaillierBits} {
		t.Run(fmt.Sprint(bits), func(t *testing.T) {
			pk, err := GeneratePaillier(bits)
			if err != nil {
				t.Fatal(err)
			}
			h, err := randomUnit(pk.N)
			if err != nil {
				t.Fatal(err)
			}
			tabs := pk.newCRTTables(h)
			hn := new(big.Int).Exp(h, pk.N, pk.N2)
			one := big.NewInt(1)
			rhos := []*big.Int{
				big.NewInt(0), one,
				new(big.Int).Sub(pk.p, one),
				new(big.Int).Sub(pk.q, one),
				new(big.Int).Mul(pk.pOrd, pk.qOrd),
				new(big.Int).Sub(tabs.rhoMax, one),
			}
			for i := 0; i < 200; i++ {
				rho, err := rand.Int(rand.Reader, tabs.rhoMax)
				if err != nil {
					t.Fatal(err)
				}
				rhos = append(rhos, rho)
			}
			for _, rho := range rhos {
				if got, want := tabs.exp(rho), new(big.Int).Exp(hn, rho, pk.N2); got.Cmp(want) != 0 {
					t.Fatalf("ρ=%v: CRT randomizer %v, full width %v", rho, got, want)
				}
			}
		})
	}
}

// TestPaillierCRTRandomizerAllocs guards the allocation count of one
// table randomizer at the production key size. The bound sits far below
// one allocation per window digit (206 digits over both tables), so a table
// product that allocates its result again fails it.
func TestPaillierCRTRandomizerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	pk, err := GeneratePaillier(DefaultPaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	if err := pk.Precompute(); err != nil {
		t.Fatal(err)
	}
	const maxAllocs = 48
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := pk.randomizer(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocs {
		t.Fatalf("one randomizer allocates %.0f values, want <= %d", allocs, maxAllocs)
	}
}

// TestPaillierHostileFactorRejected feeds blobs whose factor field does not
// actually split the modulus; unmarshaling must fail before the key can
// reach a cipher.
func TestPaillierHostileFactorRejected(t *testing.T) {
	kr, err := NewKeyRing("kBad", 96)
	if err != nil {
		t.Fatal(err)
	}
	bad := []*big.Int{
		big.NewInt(1),                            // trivial divisor
		new(big.Int).Set(kr.PK.N),                // the modulus itself
		new(big.Int).Add(kr.PK.N, big.NewInt(1)), // larger than the modulus
		big.NewInt(7919),                         // prime that does not divide n (w.h.p.)
	}
	for _, p := range bad {
		if new(big.Int).Mod(kr.PK.N, p).Sign() == 0 && p.Cmp(big.NewInt(1)) > 0 && p.Cmp(kr.PK.N) < 0 {
			continue // freak divisor; the blob would be honest
		}
		w := wireRing{ID: "kBad", Master: kr.Master, N: kr.PK.N, Lambda: kr.PK.lambda, Mu: kr.PK.mu, P: p}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
			t.Fatal(err)
		}
		if _, err := UnmarshalKeyRing(buf.Bytes()); err == nil {
			t.Errorf("hostile factor %v accepted", p)
		}
	}
}

// BenchmarkPaillierDecrypt (the CRT path every holder takes) and
// BenchmarkPaillierDecryptTextbook pin the speedup the CRT path buys on a
// production-width modulus.
func benchPaillierDecrypt(b *testing.B, crt bool) {
	pk, err := GeneratePaillier(DefaultPaillierBits)
	if err != nil {
		b.Fatal(err)
	}
	c, err := pk.Encrypt(big.NewInt(123456789))
	if err != nil {
		b.Fatal(err)
	}
	dec := pk
	if !crt {
		dec = textbookCopy(pk)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decrypt(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPaillierDecrypt(b *testing.B)         { benchPaillierDecrypt(b, true) }
func BenchmarkPaillierDecryptTextbook(b *testing.B) { benchPaillierDecrypt(b, false) }

// BenchmarkPaillierDecryptBatch decrypts the 600 ciphertexts a served
// UAPenc Q18 decrypts, through DecryptBatch at 512-bit primes; one op is
// the whole batch (BenchmarkPaillierDecrypt's op is one value).
func BenchmarkPaillierDecryptBatch(b *testing.B) {
	pk, err := GeneratePaillier(DefaultPaillierBits)
	if err != nil {
		b.Fatal(err)
	}
	cts, err := pk.EncryptBatch(benchPaillierMessages(600))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pk.DecryptBatch(cts); err != nil {
			b.Fatal(err)
		}
	}
}
