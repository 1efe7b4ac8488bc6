package crypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
)

// OPECiphertextSize is the size of an OPE ciphertext in bytes: the 8-byte
// order-preserving body followed by a 2-byte keyed filler.
const OPECiphertextSize = 10

// OPE is an order-preserving encryption scheme over 64-bit plaintext
// encodings: for any key, a < b implies Enc(a) < Enc(b) under lexicographic
// ciphertext comparison, so providers can evaluate range conditions (and
// min/max aggregates) directly over ciphertexts.
//
// The construction appends a keyed PRF filler to the big-endian plaintext
// encoding. It is a simulation stand-in for stateful OPE constructions
// (e.g. mOPE): it has the same interface, ciphertext expansion, and
// computational profile — which is what the paper's cost evaluation
// exercises — but, like any OPE, it leaks order, and this stateless variant
// leaks plaintext magnitude as well. See "Substitutions" in
// docs/ARCHITECTURE.md for the rationale.
type OPE struct {
	key []byte
}

// NewOPE constructs the OPE cipher for a master key.
func NewOPE(master []byte) *OPE {
	return &OPE{key: deriveKey(master, "ope")}
}

// prf16 returns a 16-bit PRF of the plaintext encoding.
func (o *OPE) prf16(pt uint64) uint16 {
	mac := hmac.New(sha256.New, o.key)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], pt)
	mac.Write(buf[:])
	s := mac.Sum(nil)
	return binary.BigEndian.Uint16(s[:2])
}

// Encrypt maps a 64-bit order-preserving plaintext encoding to its
// ciphertext. Ciphertexts compare lexicographically in plaintext order.
func (o *OPE) Encrypt(pt uint64) []byte {
	cryptoStats.opeEncrypts.Add(1)
	out := make([]byte, OPECiphertextSize)
	binary.BigEndian.PutUint64(out[:8], pt)
	binary.BigEndian.PutUint16(out[8:], o.prf16(pt))
	return out
}

// Decrypt recovers the plaintext encoding, verifying the PRF filler.
func (o *OPE) Decrypt(ct []byte) (uint64, error) {
	cryptoStats.opeDecrypts.Add(1)
	if len(ct) != OPECiphertextSize {
		return 0, ErrCiphertext
	}
	pt := binary.BigEndian.Uint64(ct[:8])
	if binary.BigEndian.Uint16(ct[8:]) != o.prf16(pt) {
		return 0, ErrCiphertext
	}
	return pt, nil
}

// CompareOPE compares two OPE ciphertexts in plaintext order, returning
// -1, 0, or +1 (the operation providers evaluate without keys).
func CompareOPE(ct1, ct2 []byte) int { return bytes.Compare(ct1, ct2) }

// ---------------------------------------------------------------------------
// Order-preserving plaintext encodings

// EncodeInt maps a signed integer to an order-preserving 64-bit encoding
// (sign-bit flip).
func EncodeInt(v int64) uint64 { return uint64(v) ^ (1 << 63) }

// DecodeInt reverses EncodeInt.
func DecodeInt(e uint64) int64 { return int64(e ^ (1 << 63)) }

// EncodeFloat maps a float to an order-preserving 64-bit encoding using the
// IEEE-754 total-order transform. NaN is rejected.
func EncodeFloat(f float64) (uint64, error) {
	if math.IsNaN(f) {
		return 0, fmt.Errorf("crypto: ope: NaN is not orderable")
	}
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	return bits, nil
}

// DecodeFloat reverses EncodeFloat exactly.
func DecodeFloat(e uint64) float64 {
	if e&(1<<63) != 0 {
		e &^= 1 << 63
	} else {
		e = ^e
	}
	return math.Float64frombits(e)
}
