package crypto

import (
	"math/big"
	"testing"
)

// FuzzMarshal fuzzes the key-ring wire format (the ciphertext key material
// that travels inside dispatch envelopes): UnmarshalKeyRing must never
// panic or loop on hostile bytes, and any blob it accepts must produce a
// ring whose re-marshal round-trips and whose ciphers are usable — the
// fuzzing-beyond-the-parser extension of the ROADMAP.
func FuzzMarshal(f *testing.F) {
	// Seeds: a full ring, a public-only ring, a symmetric-only ring, and
	// junk.
	full, err := NewKeyRing("kSeed", 64)
	if err != nil {
		f.Fatal(err)
	}
	if blob, err := full.Marshal(); err == nil {
		f.Add(blob)
	}
	if blob, err := full.Public().Marshal(); err == nil {
		f.Add(blob)
	}
	sym, err := NewSymmetricKeyRing("kSym")
	if err != nil {
		f.Fatal(err)
	}
	if blob, err := sym.Marshal(); err == nil {
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		ring, err := UnmarshalKeyRing(data)
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		// Accepted rings must re-marshal and round-trip to an equivalent
		// ring.
		blob, err := ring.Marshal()
		if err != nil {
			t.Fatalf("accepted ring failed to marshal: %v", err)
		}
		back, err := UnmarshalKeyRing(blob)
		if err != nil {
			t.Fatalf("re-marshaled ring rejected: %v", err)
		}
		if back.ID != ring.ID || back.CanDecrypt() != ring.CanDecrypt() {
			t.Fatalf("round trip changed the ring: %+v vs %+v", back, ring)
		}
		// Symmetric material, when present, must be usable: ciphertexts
		// cross the round trip.
		if ring.CanDecrypt() {
			d1, err := ring.Det()
			if err != nil {
				t.Fatalf("accepted ring has unusable deterministic cipher: %v", err)
			}
			d2, err := back.Det()
			if err != nil {
				t.Fatal(err)
			}
			ct, err := d1.Encrypt([]byte("probe"))
			if err != nil {
				t.Fatal(err)
			}
			pt, err := d2.Decrypt(ct)
			if err != nil || string(pt) != "probe" {
				t.Fatalf("det interop across round trip failed: %v", err)
			}
		}
		// Paillier public parameters, when present, must at least support
		// the homomorphic Add without panicking (bounded modulus enforced
		// by UnmarshalKeyRing keeps this cheap).
		if ring.PK != nil {
			c := new(big.Int).Mod(big.NewInt(12345), ring.PK.N2)
			if c.Sign() == 0 {
				c = big.NewInt(1)
			}
			ring.PK.Add(c, c)
		}
	})
}
