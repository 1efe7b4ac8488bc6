package crypto

import (
	"bytes"
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func testKey(t *testing.T) []byte {
	t.Helper()
	k, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestRandomizedRoundTrip(t *testing.T) {
	r, err := NewRandomized(testKey(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range [][]byte{nil, {}, []byte("x"), []byte("hello world"), bytes.Repeat([]byte{7}, 1000)} {
		ct, err := r.Encrypt(pt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pt) {
			t.Errorf("round trip failed for %q", pt)
		}
	}
}

func TestRandomizedIsRandomized(t *testing.T) {
	r, _ := NewRandomized(testKey(t))
	ct1, _ := r.Encrypt([]byte("same"))
	ct2, _ := r.Encrypt([]byte("same"))
	if bytes.Equal(ct1, ct2) {
		t.Errorf("randomized scheme produced linkable ciphertexts")
	}
}

func TestDeterministicRoundTripAndEquality(t *testing.T) {
	d, err := NewDeterministic(testKey(t))
	if err != nil {
		t.Fatal(err)
	}
	ct1, _ := d.Encrypt([]byte("stroke"))
	ct2, _ := d.Encrypt([]byte("stroke"))
	ct3, _ := d.Encrypt([]byte("flu"))
	if !Equal(ct1, ct2) {
		t.Errorf("deterministic ciphertexts of equal plaintexts differ")
	}
	if Equal(ct1, ct3) {
		t.Errorf("deterministic ciphertexts of distinct plaintexts collide")
	}
	pt, err := d.Decrypt(ct1)
	if err != nil || string(pt) != "stroke" {
		t.Errorf("decrypt = %q, %v", pt, err)
	}
}

func TestDeterministicKeysDiffer(t *testing.T) {
	d1, _ := NewDeterministic(testKey(t))
	d2, _ := NewDeterministic(testKey(t))
	ct1, _ := d1.Encrypt([]byte("v"))
	ct2, _ := d2.Encrypt([]byte("v"))
	if Equal(ct1, ct2) {
		t.Errorf("different keys produced equal ciphertexts")
	}
}

func TestDeterministicIntegrity(t *testing.T) {
	d, _ := NewDeterministic(testKey(t))
	ct, _ := d.Encrypt([]byte("payload"))
	ct[len(ct)-1] ^= 1
	if _, err := d.Decrypt(ct); err == nil {
		t.Errorf("tampered ciphertext decrypted")
	}
	if _, err := d.Decrypt(ct[:3]); err == nil {
		t.Errorf("truncated ciphertext decrypted")
	}
}

func TestPaillierRoundTrip(t *testing.T) {
	pk, err := GeneratePaillier(128)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int64{0, 1, -1, 42, -42, 1 << 40, -(1 << 40)} {
		ct, err := pk.Encrypt(big.NewInt(m))
		if err != nil {
			t.Fatal(err)
		}
		got, err := pk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if got.Int64() != m {
			t.Errorf("Decrypt(Enc(%d)) = %v", m, got)
		}
	}
}

func TestPaillierHomomorphism(t *testing.T) {
	pk, err := GeneratePaillier(128)
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := pk.Encrypt(big.NewInt(100))
	c2, _ := pk.Encrypt(big.NewInt(-30))
	sum, _ := pk.Decrypt(pk.Add(c1, c2))
	if sum.Int64() != 70 {
		t.Errorf("homomorphic sum = %v, want 70", sum)
	}
}

func TestPaillierPropertySum(t *testing.T) {
	pk, err := GeneratePaillier(96)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b int32) bool {
		ca, err1 := pk.Encrypt(big.NewInt(int64(a)))
		cb, err2 := pk.Encrypt(big.NewInt(int64(b)))
		if err1 != nil || err2 != nil {
			return false
		}
		got, err := pk.Decrypt(pk.Add(ca, cb))
		return err == nil && got.Int64() == int64(a)+int64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPaillierPublicOnly(t *testing.T) {
	pk, _ := GeneratePaillier(96)
	pub := pk.Public()
	if pub.HasPrivate() {
		t.Fatalf("public copy retains private material")
	}
	c, err := pub.Encrypt(big.NewInt(5))
	if err != nil {
		t.Fatalf("public encrypt: %v", err)
	}
	if _, err := pub.Decrypt(c); err == nil {
		t.Errorf("public-only key decrypted")
	}
	got, err := pk.Decrypt(pub.Add(c, c))
	if err != nil || got.Int64() != 10 {
		t.Errorf("provider-side add then authority decrypt = %v, %v", got, err)
	}
	// A public copy carries no factorization, so even a batch large enough
	// to precompute stays on the textbook path.
	checkTextbookBatch(t, pub, pk)
}

func TestPaillierMessageBounds(t *testing.T) {
	pk, _ := GeneratePaillier(32)
	if _, err := pk.Encrypt(pk.N); err == nil {
		t.Errorf("oversized message accepted")
	}
	if _, err := GeneratePaillier(8); err == nil {
		t.Errorf("tiny prime size accepted")
	}
}

func TestOPEOrderPreservation(t *testing.T) {
	o := NewOPE(testKey(t))
	rnd := rand.New(rand.NewSource(1))
	prev := int64(-1 << 50)
	var prevCt []byte
	for i := 0; i < 2000; i++ {
		v := prev + 1 + rnd.Int63n(1<<40)
		ct := o.Encrypt(EncodeInt(v))
		if prevCt != nil && CompareOPE(prevCt, ct) >= 0 {
			t.Fatalf("order violated: Enc(%d) >= Enc(%d)", prev, v)
		}
		pt, err := o.Decrypt(ct)
		if err != nil || DecodeInt(pt) != v {
			t.Fatalf("round trip failed for %d: %v", v, err)
		}
		prev, prevCt = v, ct
	}
}

func TestOPEPropertyOrder(t *testing.T) {
	o := NewOPE(testKey(t))
	f := func(a, b int64) bool {
		ca := o.Encrypt(EncodeInt(a))
		cb := o.Encrypt(EncodeInt(b))
		switch {
		case a < b:
			return CompareOPE(ca, cb) < 0
		case a > b:
			return CompareOPE(ca, cb) > 0
		default:
			return CompareOPE(ca, cb) == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOPETamperDetection(t *testing.T) {
	o := NewOPE(testKey(t))
	ct := o.Encrypt(EncodeInt(7))
	ct[9] ^= 1
	if _, err := o.Decrypt(ct); err == nil {
		t.Errorf("tampered OPE ciphertext accepted")
	}
	if _, err := o.Decrypt(ct[:4]); err == nil {
		t.Errorf("truncated OPE ciphertext accepted")
	}
}

func TestFloatEncodingTotalOrder(t *testing.T) {
	vals := []float64{-1e300, -42.5, -1, -0.001, 0, 0.001, 1, 42.5, 1e300}
	for i := 1; i < len(vals); i++ {
		a, err1 := EncodeFloat(vals[i-1])
		b, err2 := EncodeFloat(vals[i])
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if a >= b {
			t.Errorf("EncodeFloat(%v) >= EncodeFloat(%v)", vals[i-1], vals[i])
		}
	}
	f := func(x float64) bool {
		e, err := EncodeFloat(x)
		if err != nil {
			return true // NaN
		}
		return DecodeFloat(e) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntEncodingRoundTrip(t *testing.T) {
	f := func(v int64) bool { return DecodeInt(EncodeInt(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyRing(t *testing.T) {
	kr, err := NewKeyRing("kP", 96)
	if err != nil {
		t.Fatal(err)
	}
	if !kr.CanDecrypt() {
		t.Fatalf("full ring should decrypt")
	}
	d, err := kr.Det()
	if err != nil {
		t.Fatal(err)
	}
	ct, _ := d.Encrypt([]byte("v"))
	if pt, err := d.Decrypt(ct); err != nil || string(pt) != "v" {
		t.Errorf("det via ring failed: %v", err)
	}
	if _, err := kr.Rnd(); err != nil {
		t.Errorf("rnd via ring: %v", err)
	}
	if _, err := kr.OPE(); err != nil {
		t.Errorf("ope via ring: %v", err)
	}

	pub := kr.Public()
	if pub.CanDecrypt() {
		t.Errorf("public ring should not decrypt")
	}
	if _, err := pub.Det(); err == nil {
		t.Errorf("public ring returned a deterministic cipher")
	}
	if _, err := pub.PK.Encrypt(big.NewInt(1)); err != nil {
		t.Errorf("public ring should encrypt with Paillier: %v", err)
	}
}

func TestSymmetricKeyRing(t *testing.T) {
	before := ReadStats().PaillierKeygens
	kr, err := NewSymmetricKeyRing("kS")
	if err != nil {
		t.Fatal(err)
	}
	if !kr.CanDecrypt() || kr.PK != nil {
		t.Fatalf("symmetric ring = %+v", kr)
	}
	if _, err := kr.Det(); err != nil {
		t.Errorf("det via symmetric ring: %v", err)
	}
	if _, err := kr.Paillier(); !errors.Is(err, ErrNoPaillier) {
		t.Errorf("Paillier() = %v, want ErrNoPaillier", err)
	}
	if pub := kr.Public(); pub.ID != "kS" || pub.PK != nil || pub.CanDecrypt() {
		t.Errorf("Public() of a symmetric ring = %+v", pub)
	}
	if got := ReadStats().PaillierKeygens - before; got != 0 {
		t.Errorf("symmetric ring generated %d Paillier pairs", got)
	}
	full, err := NewKeyRing("kP", 64)
	if err != nil {
		t.Fatal(err)
	}
	if pk, err := full.Paillier(); err != nil || pk != full.PK {
		t.Errorf("Paillier() on a full ring = %v, %v", pk, err)
	}
	if got := ReadStats().PaillierKeygens - before; got != 1 {
		t.Errorf("NewKeyRing counted %d Paillier keygens, want 1", got)
	}
}

func TestKeyStore(t *testing.T) {
	s := NewKeyStore()
	kr, _ := NewKeyRing("kSC", 96)
	s.Add(kr)
	if got, err := s.Get("kSC"); err != nil || got.ID != "kSC" {
		t.Errorf("Get = %v, %v", got, err)
	}
	if _, err := s.Get("kMissing"); err == nil {
		t.Errorf("missing key returned")
	}
	if ids := s.IDs(); len(ids) != 1 || ids[0] != "kSC" {
		t.Errorf("IDs = %v", ids)
	}
}
