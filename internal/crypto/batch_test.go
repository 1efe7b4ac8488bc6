package crypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"math/big"
	"sync"
	"testing"
)

func batchPlaintexts() [][]byte {
	return [][]byte{
		nil,
		{},
		[]byte("x"),
		[]byte("hello world"),
		bytes.Repeat([]byte{7}, 100),
		bytes.Repeat([]byte("batch"), 50),
		{0xff},
	}
}

// The manual CTR keystream must match crypto/cipher's for every length,
// including multi-block payloads crossing the counter increment.
func TestCtrXORMatchesStdlib(t *testing.T) {
	block, err := aes.NewCipher(deriveKey(testKey(t), "ctr-test"))
	if err != nil {
		t.Fatal(err)
	}
	iv := bytes.Repeat([]byte{0xfe}, aes.BlockSize) // forces carry propagation
	// 17..128 exercise partial stripes, 129 a full stripe plus a tail, 4096
	// and 70000 many full stripes (the multi-block keystream path).
	for _, n := range []int{0, 1, 15, 16, 17, 64, 127, 128, 129, 1000, 4096, 70000} {
		src := bytes.Repeat([]byte{0xa5}, n)
		want := make([]byte, n)
		cipher.NewCTR(block, iv).XORKeyStream(want, src)
		got := make([]byte, n)
		ctrXOR(block, iv, got, src)
		if !bytes.Equal(got, want) {
			t.Errorf("ctrXOR diverges from cipher.NewCTR at length %d", n)
		}
	}
}

func TestDeterministicBatchBitIdentical(t *testing.T) {
	d, err := NewDeterministic(testKey(t))
	if err != nil {
		t.Fatal(err)
	}
	pts := batchPlaintexts()
	cts, err := d.EncryptBatch(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		want, err := d.Encrypt(pt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cts[i], want) {
			t.Errorf("batch ciphertext %d differs from per-value Encrypt", i)
		}
	}
	back, err := d.DecryptBatch(cts)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		if !bytes.Equal(back[i], pt) {
			t.Errorf("batch round trip %d = %q, want %q", i, back[i], pt)
		}
	}
	if _, err := d.DecryptBatch([][]byte{{1, 2}}); err == nil {
		t.Errorf("truncated ciphertext accepted")
	}
	tampered, _ := d.EncryptBatch(pts[3:4])
	tampered[0][len(tampered[0])-1] ^= 1
	if _, err := d.DecryptBatch(tampered); err == nil {
		t.Errorf("tampered ciphertext accepted")
	}
}

func TestRandomizedBatchDecryptIdentical(t *testing.T) {
	r, err := NewRandomized(testKey(t))
	if err != nil {
		t.Fatal(err)
	}
	pts := batchPlaintexts()
	cts, err := r.EncryptBatch(pts)
	if err != nil {
		t.Fatal(err)
	}
	// Batch ciphertexts decrypt through the per-value path and vice versa.
	for i, pt := range pts {
		got, err := r.Decrypt(cts[i])
		if err != nil || !bytes.Equal(got, pt) {
			t.Errorf("per-value decrypt of batch ciphertext %d = %q, %v", i, got, err)
		}
	}
	single := make([][]byte, len(pts))
	for i, pt := range pts {
		single[i], err = r.Encrypt(pt)
		if err != nil {
			t.Fatal(err)
		}
	}
	back, err := r.DecryptBatch(single)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		if !bytes.Equal(back[i], pt) {
			t.Errorf("batch decrypt of per-value ciphertext %d = %q", i, back[i])
		}
	}
	// Fresh nonces per value: equal plaintexts stay unlinkable in a batch.
	two, _ := r.EncryptBatch([][]byte{[]byte("same"), []byte("same")})
	if bytes.Equal(two[0], two[1]) {
		t.Errorf("batch reused a nonce across values")
	}
	if _, err := r.DecryptBatch([][]byte{{1}}); err == nil {
		t.Errorf("truncated ciphertext accepted")
	}
}

func TestOPEBatchBitIdentical(t *testing.T) {
	o := NewOPE(testKey(t))
	pts := []uint64{0, 1, 1 << 40, ^uint64(0), EncodeInt(-7)}
	cts := o.EncryptBatch(pts)
	for i, pt := range pts {
		if !bytes.Equal(cts[i], o.Encrypt(pt)) {
			t.Errorf("batch OPE ciphertext %d differs from per-value Encrypt", i)
		}
	}
	back, err := o.DecryptBatch(cts)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		if back[i] != pt {
			t.Errorf("batch OPE round trip %d = %d, want %d", i, back[i], pt)
		}
	}
	cts[0][9] ^= 1
	if _, err := o.DecryptBatch(cts); err == nil {
		t.Errorf("tampered OPE ciphertext accepted")
	}
}

func TestBatchEmpty(t *testing.T) {
	d, _ := NewDeterministic(testKey(t))
	r, _ := NewRandomized(testKey(t))
	o := NewOPE(testKey(t))
	pk, err := GeneratePaillier(64)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := d.EncryptBatch(nil); err != nil || len(out) != 0 {
		t.Errorf("det empty batch = %v, %v", out, err)
	}
	if out, err := r.EncryptBatch([][]byte{}); err != nil || len(out) != 0 {
		t.Errorf("rnd empty batch = %v, %v", out, err)
	}
	if out := o.EncryptBatch(nil); len(out) != 0 {
		t.Errorf("ope empty batch = %v", out)
	}
	if out, err := pk.EncryptBatch(nil); err != nil || len(out) != 0 {
		t.Errorf("paillier empty batch = %v, %v", out, err)
	}
	if out, err := d.DecryptBatch(nil); err != nil || len(out) != 0 {
		t.Errorf("det empty decrypt = %v, %v", out, err)
	}
}

func TestPaillierBatchDecryptIdentical(t *testing.T) {
	pk, err := GeneratePaillier(96)
	if err != nil {
		t.Fatal(err)
	}
	msgs := []int64{0, 1, -1, 42, -42, 1 << 40, -(1 << 40)}
	ms := make([]*big.Int, 0, len(msgs))
	for _, m := range msgs {
		ms = append(ms, big.NewInt(m))
	}
	// Large enough to trigger the automatic randomizer-table precomputation.
	for len(ms) < 3*paillierBatchPrecompute {
		ms = append(ms, big.NewInt(int64(len(ms))))
	}
	cts, err := pk.EncryptBatch(ms)
	if err != nil {
		t.Fatal(err)
	}
	if !pk.Precomputed() {
		t.Fatalf("batch of %d did not build the randomizer tables", len(ms))
	}
	for i, m := range ms {
		got, err := pk.Decrypt(cts[i])
		if err != nil || got.Cmp(m) != 0 {
			t.Errorf("Decrypt(batch[%d]) = %v, %v; want %v", i, got, err, m)
		}
	}
	// Precomputed single-value encryptions stay decrypt-identical, and the
	// homomorphism is preserved across batch/non-batch ciphertexts.
	c, err := pk.Encrypt(big.NewInt(29))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := pk.Decrypt(pk.Add(c, cts[3]))
	if err != nil || sum.Int64() != 29+42 {
		t.Errorf("mixed add = %v, %v", sum, err)
	}
	if _, err := pk.EncryptBatch([]*big.Int{pk.N}); err == nil {
		t.Errorf("oversized batch message accepted")
	}
}

// Concurrent precomputation and encryption on a shared key must be safe
// (exec's worker pool encrypts one column from several goroutines).
func TestPaillierConcurrentBatch(t *testing.T) {
	pk, err := GeneratePaillier(64)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ms := make([]*big.Int, 20)
			for i := range ms {
				ms[i] = big.NewInt(int64(w*100 + i))
			}
			cts, err := pk.EncryptBatch(ms)
			if err != nil {
				errs <- err
				return
			}
			for i, m := range ms {
				got, err := pk.Decrypt(cts[i])
				if err != nil || got.Cmp(m) != 0 {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// ctrXOR is the one-shot form of ctrState.xor.
func ctrXOR(block cipher.Block, iv []byte, dst, src []byte) {
	var s ctrState
	s.xor(block, iv, dst, src)
}
