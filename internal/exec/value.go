package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"

	"mpq/internal/algebra"
	"mpq/internal/crypto"
)

// Kind is the runtime type of a value.
type Kind uint8

// Value kinds.
const (
	KNull Kind = iota
	KInt
	KFloat
	KString
	KCipher
)

// moneyScale converts floats to fixed-point integers for Paillier
// aggregation (four decimal digits).
const moneyScale = 10000

// Cipher is an encrypted value: symmetric/OPE ciphertext bytes or a
// Paillier group element, together with the scheme, the key identifier, and
// the plaintext kind needed for decoding.
type Cipher struct {
	Scheme algebra.Scheme
	KeyID  string
	Data   []byte   // det / rnd / ope ciphertext
	Phe    *big.Int // paillier ciphertext
	Div    int64    // paillier: divisor accumulated by avg (0 or 1 = none)
	Plain  Kind     // kind of the underlying plaintext
}

// Value is a runtime value: a tagged union of the supported kinds.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
	C    *Cipher
}

// Convenience constructors.
func Null() Value           { return Value{Kind: KNull} }
func Int(v int64) Value     { return Value{Kind: KInt, I: v} }
func Float(v float64) Value { return Value{Kind: KFloat, F: v} }
func String(v string) Value { return Value{Kind: KString, S: v} }
func Enc(c *Cipher) Value   { return Value{Kind: KCipher, C: c} }

// IsCipher reports whether the value is encrypted.
func (v Value) IsCipher() bool { return v.Kind == KCipher }

// String renders the value for display.
func (v Value) String() string {
	switch v.Kind {
	case KNull:
		return "NULL"
	case KInt:
		return fmt.Sprintf("%d", v.I)
	case KFloat:
		return fmt.Sprintf("%.4f", v.F)
	case KString:
		return v.S
	case KCipher:
		return fmt.Sprintf("⟨%s:%s⟩", v.C.Scheme, v.C.KeyID)
	}
	return "?"
}

// AsFloat converts a numeric value to float64.
func (v Value) AsFloat() (float64, error) {
	switch v.Kind {
	case KInt:
		return float64(v.I), nil
	case KFloat:
		return v.F, nil
	}
	return 0, fmt.Errorf("exec: value %v is not numeric", v)
}

// plainSize returns the encoded size of a plaintext value, so batch
// encryption can pre-size one arena for a whole column.
func plainSize(v Value) (int, error) {
	switch v.Kind {
	case KInt, KFloat:
		return 9, nil
	case KString:
		return 1 + len(v.S), nil
	case KNull:
		return 1, nil
	}
	return 0, fmt.Errorf("exec: cannot encode %v", v)
}

// writePlain writes the plaintext encoding of v into buf, which must be
// exactly plainSize(v) bytes (an arena slot).
func writePlain(buf []byte, v Value) error {
	switch v.Kind {
	case KInt:
		buf[0] = byte(KInt)
		binary.BigEndian.PutUint64(buf[1:], uint64(v.I))
		return nil
	case KFloat:
		buf[0] = byte(KFloat)
		binary.BigEndian.PutUint64(buf[1:], math.Float64bits(v.F))
		return nil
	case KString:
		buf[0] = byte(KString)
		copy(buf[1:], v.S)
		return nil
	case KNull:
		buf[0] = byte(KNull)
		return nil
	}
	return fmt.Errorf("exec: cannot encode %v", v)
}

// decodePlain reverses writePlain.
func decodePlain(b []byte) (Value, error) {
	if len(b) == 0 {
		return Value{}, fmt.Errorf("exec: empty plaintext encoding")
	}
	switch Kind(b[0]) {
	case KInt:
		if len(b) != 9 {
			return Value{}, fmt.Errorf("exec: bad int encoding")
		}
		return Int(int64(binary.BigEndian.Uint64(b[1:]))), nil
	case KFloat:
		if len(b) != 9 {
			return Value{}, fmt.Errorf("exec: bad float encoding")
		}
		return Float(math.Float64frombits(binary.BigEndian.Uint64(b[1:]))), nil
	case KString:
		return String(string(b[1:])), nil
	case KNull:
		return Null(), nil
	}
	return Value{}, fmt.Errorf("exec: unknown plaintext encoding tag %d", b[0])
}

// opeEncode maps a plaintext value to its order-preserving 64-bit encoding.
func opeEncode(v Value) (uint64, error) {
	switch v.Kind {
	case KInt:
		return crypto.EncodeInt(v.I), nil
	case KFloat:
		return crypto.EncodeFloat(v.F)
	}
	return 0, fmt.Errorf("exec: OPE over %v is unsupported (strings require plaintext)", v.Kind)
}

// opeDecode reverses opeEncode given the original kind.
func opeDecode(e uint64, plain Kind) (Value, error) {
	switch plain {
	case KInt:
		return Int(crypto.DecodeInt(e)), nil
	case KFloat:
		return Float(crypto.DecodeFloat(e)), nil
	}
	return Value{}, fmt.Errorf("exec: OPE decode of kind %d unsupported", plain)
}

// pheEncode maps a numeric value to the fixed-point integer Paillier
// operates on.
func pheEncode(v Value) (*big.Int, error) {
	switch v.Kind {
	case KInt:
		return new(big.Int).Mul(big.NewInt(v.I), big.NewInt(moneyScale)), nil
	case KFloat:
		return big.NewInt(int64(math.Round(v.F * moneyScale))), nil
	}
	return nil, fmt.Errorf("exec: Paillier over %v is unsupported", v.Kind)
}

// pheDecode reverses pheEncode, applying the accumulated divisor.
func pheDecode(m *big.Int, div int64, plain Kind) (Value, error) {
	f := new(big.Float).SetInt(m)
	f.Quo(f, big.NewFloat(moneyScale))
	if div > 1 {
		f.Quo(f, big.NewFloat(float64(div)))
	}
	out, _ := f.Float64()
	if plain == KInt && div <= 1 {
		return Int(int64(math.Round(out))), nil
	}
	return Float(out), nil
}

// compare orders two non-NULL plaintext values of the same kind, or two
// numbers: -1, 0, +1. Its callers settle NULL first (cellVerdict,
// compareForSort).
func compare(a, b Value) (int, error) {
	switch {
	case a.Kind == KString && b.Kind == KString:
		return cmp3(a.S, b.S), nil
	case (a.Kind == KInt || a.Kind == KFloat) && (b.Kind == KInt || b.Kind == KFloat):
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return cmp3(af, bf), nil
	}
	return 0, fmt.Errorf("exec: incomparable kinds %d and %d", a.Kind, b.Kind)
}

// keyScheme refuses a ciphertext scheme that cannot key a group or a join:
// only deterministic and OPE ciphertexts are linkable.
func keyScheme(s algebra.Scheme) error {
	if s != algebra.SchemeDeterministic && s != algebra.SchemeOPE {
		return fmt.Errorf("exec: cannot group/join on %s ciphertext", s)
	}
	return nil
}
