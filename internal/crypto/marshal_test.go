package crypto

import (
	"errors"
	"math/big"
	"testing"
)

func TestKeyRingMarshalRoundTrip(t *testing.T) {
	kr, err := NewKeyRing("kSC", 96)
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
	if got.ID != "kSC" || !got.CanDecrypt() {
		t.Fatalf("round trip = %+v", got)
	}
	// Symmetric material interoperates: ciphertexts cross the wire.
	d1, _ := kr.Det()
	d2, _ := got.Det()
	ct, _ := d1.Encrypt([]byte("v"))
	pt, err := d2.Decrypt(ct)
	if err != nil || string(pt) != "v" {
		t.Errorf("det interop failed: %v", err)
	}
	// Paillier private material survives: the unmarshaled ring decrypts
	// what the original ring encrypted.
	c, _ := kr.PK.Encrypt(big.NewInt(42))
	m, err := got.PK.Decrypt(c)
	if err != nil || m.Int64() != 42 {
		t.Errorf("paillier interop = %v, %v", m, err)
	}
}

func TestKeyRingMarshalPublicOnly(t *testing.T) {
	kr, err := NewKeyRing("kP", 96)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := kr.Public().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalKeyRing(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.CanDecrypt() {
		t.Errorf("public-only blob produced a decrypting ring")
	}
	if got.PK.HasPrivate() {
		t.Errorf("public-only blob leaked Paillier private material")
	}
	// Provider-side homomorphic addition still works; the authority
	// decrypts.
	c1, _ := got.PK.Encrypt(big.NewInt(5))
	c2, _ := got.PK.Encrypt(big.NewInt(7))
	sum, err := kr.PK.Decrypt(got.PK.Add(c1, c2))
	if err != nil || sum.Int64() != 12 {
		t.Errorf("public add interop = %v, %v", sum, err)
	}
}

func TestKeyRingMarshalSymmetricOnly(t *testing.T) {
	kr, err := NewSymmetricKeyRing("kS")
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
	if got.ID != "kS" || !got.CanDecrypt() || got.PK != nil {
		t.Fatalf("round trip = %+v", got)
	}
	d1, _ := kr.Det()
	d2, _ := got.Det()
	ct, _ := d1.Encrypt([]byte("v"))
	if pt, err := d2.Decrypt(ct); err != nil || string(pt) != "v" {
		t.Errorf("det interop failed: %v", err)
	}
	if _, err := got.Paillier(); !errors.Is(err, ErrNoPaillier) {
		t.Errorf("Paillier() on a symmetric-only ring = %v, want ErrNoPaillier", err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := UnmarshalKeyRing(nil); err == nil {
		t.Errorf("nil blob accepted")
	}
	if _, err := UnmarshalKeyRing([]byte("garbage")); err == nil {
		t.Errorf("garbage blob accepted")
	}
}
