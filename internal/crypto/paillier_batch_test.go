package crypto

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// batchMessages returns n ≥ 36 plaintexts inside DecryptBatch's bound and
// their ciphertexts under pk. The first 36 are edge runs: 0, ±1, 0, then
// eight slots at +(2^127−1) (from 4), eight at −(2^127−1) (from 12), and
// the two alternating (from 20). The rest mix signs and magnitudes below
// 2^125, and every third of them is an AddTo sum of two ciphertexts.
func batchMessages(t *testing.T, pk *Paillier, n int) ([]*big.Int, []*big.Int) {
	t.Helper()
	one := big.NewInt(1)
	top := new(big.Int).Sub(pheSlotMax, one)
	bottom := new(big.Int).Neg(top)
	ms := []*big.Int{big.NewInt(0), one, big.NewInt(-1), big.NewInt(0)}
	for i := 0; i < 8; i++ {
		ms = append(ms, top)
	}
	for i := 0; i < 8; i++ {
		ms = append(ms, bottom)
	}
	for i := 0; i < 8; i++ {
		ms = append(ms, top, bottom)
	}
	const edges = 36
	rng := rand.New(rand.NewSource(int64(n)))
	for len(ms) < n {
		m := new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(rng.Intn(pheSlotBits-2))))
		if rng.Intn(2) == 0 {
			m.Neg(m)
		}
		ms = append(ms, m)
	}
	cts, err := pk.EncryptBatch(ms)
	if err != nil {
		t.Fatal(err)
	}
	for i := edges; i+1 < n; i += 3 {
		ms[i] = new(big.Int).Add(ms[i], ms[i+1])
		cts[i] = pk.AddTo(new(big.Int).Set(cts[i]), cts[i+1], new(AddScratch))
	}
	return ms, cts
}

// checkDecryptBatch requires DecryptBatch(cts) to give want, what per-value
// Decrypt gives, and to count len(cts) Paillier decryptions.
func checkDecryptBatch(t *testing.T, pk *Paillier, cts, want []*big.Int) {
	t.Helper()
	before := ReadStats().PheDecrypts
	got, err := pk.DecryptBatch(cts)
	if err != nil {
		t.Fatalf("DecryptBatch of %d: %v", len(cts), err)
	}
	if d := ReadStats().PheDecrypts - before; d != uint64(len(cts)) {
		t.Fatalf("DecryptBatch of %d counted %d decryptions", len(cts), d)
	}
	if len(got) != len(cts) {
		t.Fatalf("DecryptBatch of %d returned %d values", len(cts), len(got))
	}
	for i, c := range cts {
		m, err := pk.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Cmp(m) != 0 || m.Cmp(want[i]) != 0 {
			t.Fatalf("value %d of %d: DecryptBatch %v, Decrypt %v, plaintext %v", i, len(cts), got[i], m, want[i])
		}
	}
}

// TestPaillierDecryptBatch checks DecryptBatch against per-value Decrypt
// where it packs, at 512- and 1024-bit primes (3 and 7 slots), for lengths
// 0, 1, s−1, s, s+1 and 600. Short lengths start at each edge run.
func TestPaillierDecryptBatch(t *testing.T) {
	for _, bits := range []int{DefaultPaillierBits, 1024} {
		t.Run(fmt.Sprint(bits), func(t *testing.T) {
			pk, err := GeneratePaillier(bits)
			if err != nil {
				t.Fatal(err)
			}
			slots := (pk.p.BitLen() - 2) / pheSlotBits
			if want := (bits - 2) / 128; slots != want {
				t.Fatalf("%d slots at %d-bit primes, want %d", slots, bits, want)
			}
			ms, cts := batchMessages(t, pk, 600)
			for _, n := range []int{0, 1, slots - 1, slots, slots + 1} {
				for _, lo := range []int{0, 4, 12, 20} {
					checkDecryptBatch(t, pk, cts[lo:lo+n], ms[lo:lo+n])
				}
			}
			checkDecryptBatch(t, pk, cts, ms)
		})
	}
}

// TestPaillierDecryptBatchFallbacks checks the keys DecryptBatch cannot
// pack for: a 128-bit-prime key (too narrow for one slot) and a key without
// its factorization (a legacy blob) decrypt value by value, and a
// public-only key refuses. A first slot past the bound is an error.
func TestPaillierDecryptBatchFallbacks(t *testing.T) {
	narrow, err := GeneratePaillier(128)
	if err != nil {
		t.Fatal(err)
	}
	ms, cts := batchMessages(t, narrow, 50)
	checkDecryptBatch(t, narrow, cts, ms)

	pk, err := GeneratePaillier(DefaultPaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	ms, cts = batchMessages(t, pk, 50)
	checkDecryptBatch(t, textbookCopy(pk), cts, ms)

	if _, err := pk.Public().DecryptBatch(cts); !errors.Is(err, ErrNoPrivateKey) {
		t.Fatalf("public-only DecryptBatch: %v, want ErrNoPrivateKey", err)
	}
	over, err := pk.Encrypt(pheSlotMax)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pk.DecryptBatch([]*big.Int{over, cts[0]}); !errors.Is(err, errBatchBound) {
		t.Fatalf("DecryptBatch of 2^127: %v, want errBatchBound", err)
	}
}
