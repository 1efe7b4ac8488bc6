package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/crypto"
)

// valueEqual compares two values structurally (ciphers by scheme, key, and
// payload, since round-tripping through a column rebuilds Cipher structs).
func valueEqual(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KNull:
		return true
	case KInt:
		return a.I == b.I
	case KFloat:
		return a.F == b.F || (math.IsNaN(a.F) && math.IsNaN(b.F))
	case KString:
		return a.S == b.S
	case KCipher:
		if a.C.Scheme != b.C.Scheme || a.C.KeyID != b.C.KeyID || a.C.Plain != b.C.Plain || a.C.Div != b.C.Div {
			return false
		}
		if (a.C.Phe == nil) != (b.C.Phe == nil) {
			return false
		}
		if a.C.Phe != nil && a.C.Phe.Cmp(b.C.Phe) != 0 {
			return false
		}
		return string(a.C.Data) == string(b.C.Data)
	}
	return false
}

// TestColumnRoundTripProperty generates random cell vectors of every
// supported shape — pure typed columns, NULL-studded typed columns, uniform
// symmetric cipher columns, Paillier columns, and mixed-kind columns — and
// checks that NewColumn → Value(i) reproduces every cell, that the column
// chose the expected layout, and that gather preserves cells and NULLs.
func TestColumnRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ring, err := crypto.NewKeyRing("k1", 128)
	if err != nil {
		t.Fatal(err)
	}

	enc := func(scheme algebra.Scheme, v Value) Value {
		cv, err := EncryptValue(ring, scheme, v)
		if err != nil {
			t.Fatal(err)
		}
		return cv
	}

	type gen struct {
		name string
		want ColKind
		cell func(i int) Value
	}
	gens := []gen{
		{"ints", ColInt, func(i int) Value { return Int(rng.Int63n(1000) - 500) }},
		{"floats", ColFloat, func(i int) Value { return Float(rng.NormFloat64()) }},
		{"strings", ColStr, func(i int) Value { return String(fmt.Sprintf("s%d", rng.Intn(50))) }},
		{"ints-with-nulls", ColInt, func(i int) Value {
			if rng.Intn(3) == 0 {
				return Null()
			}
			return Int(rng.Int63())
		}},
		{"floats-with-nulls", ColFloat, func(i int) Value {
			if rng.Intn(3) == 0 {
				return Null()
			}
			return Float(rng.Float64())
		}},
		{"strings-with-nulls", ColStr, func(i int) Value {
			if rng.Intn(3) == 0 {
				return Null()
			}
			return String(fmt.Sprintf("v%d", i))
		}},
		{"det-ciphers", ColCipherBytes, func(i int) Value { return enc(algebra.SchemeDeterministic, Int(int64(i%13))) }},
		{"ope-ciphers", ColCipherBytes, func(i int) Value { return enc(algebra.SchemeOPE, Float(float64(i))) }},
		{"rnd-ciphers", ColCipherBytes, func(i int) Value { return enc(algebra.SchemeRandom, String(fmt.Sprintf("p%d", i))) }},
		{"paillier-ciphers", ColAny, func(i int) Value { return enc(algebra.SchemePaillier, Int(int64(i))) }},
		{"mixed-kinds", ColAny, func(i int) Value {
			switch i % 3 {
			case 0:
				return Int(int64(i))
			case 1:
				return Float(float64(i))
			default:
				return String("x")
			}
		}},
		{"cipher-then-null", ColAny, func(i int) Value {
			if i == 7 {
				return Null()
			}
			return enc(algebra.SchemeDeterministic, Int(int64(i)))
		}},
		{"null-then-cipher", ColAny, func(i int) Value {
			if i == 0 {
				return Null()
			}
			return enc(algebra.SchemeDeterministic, Int(int64(i)))
		}},
		{"all-null", ColAny, func(i int) Value { return Null() }},
	}

	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			for _, n := range []int{0, 1, 7, 130} {
				vals := make([]Value, n)
				for i := range vals {
					vals[i] = g.cell(i)
				}
				col := NewColumn(vals)
				// Small vectors may legitimately collapse to a tighter
				// layout (a 1-cell "mixed" column is just typed); the
				// expected layout must show at full length.
				if n == 130 && col.Kind != g.want {
					t.Fatalf("n=%d: layout %d, want %d", n, col.Kind, g.want)
				}
				if col.Len() != n {
					t.Fatalf("len %d, want %d", col.Len(), n)
				}
				for i := range vals {
					if got := col.Value(i); !valueEqual(got, vals[i]) {
						t.Fatalf("n=%d cell %d: %v, want %v", n, i, got, vals[i])
					}
					if col.IsNull(i) != (vals[i].Kind == KNull) {
						t.Fatalf("n=%d cell %d: IsNull mismatch", n, i)
					}
				}
				// Gather a random subsequence and check cells survive.
				var sel []int32
				for i := 0; i < n; i++ {
					if rng.Intn(2) == 0 {
						sel = append(sel, int32(i))
					}
				}
				gathered := col.gather(sel)
				for o, i := range sel {
					if got := gathered.Value(o); !valueEqual(got, vals[i]) {
						t.Fatalf("gather cell %d (src %d): %v, want %v", o, i, got, vals[i])
					}
				}
			}
		})
	}
}

// TestBatchRowsRoundTrip checks the row-major boundary shims: rows →
// NewBatchFromRows → Rows reproduces every cell, and Row agrees with Rows.
func TestBatchRowsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ring, err := crypto.NewKeyRing("kb", 128)
	if err != nil {
		t.Fatal(err)
	}
	const width = 5
	rows := make([][]Value, 64)
	for i := range rows {
		det, err := EncryptValue(ring, algebra.SchemeDeterministic, Int(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		row := []Value{Int(rng.Int63()), Float(rng.Float64()), String(fmt.Sprintf("r%d", i)), det, Null()}
		if i%5 == 0 {
			row[0] = Null()
		}
		rows[i] = row
	}
	b, err := NewBatchFromRows(rows, width)
	if err != nil {
		t.Fatal(err)
	}
	if b.N != len(rows) || len(b.Cols) != width {
		t.Fatalf("batch %dx%d, want %dx%d", b.N, len(b.Cols), len(rows), width)
	}
	back := b.Rows()
	scratch := make([]Value, width)
	for ri := range rows {
		b.Row(ri, scratch)
		for ci := range rows[ri] {
			if !valueEqual(back[ri][ci], rows[ri][ci]) {
				t.Fatalf("Rows()[%d][%d] = %v, want %v", ri, ci, back[ri][ci], rows[ri][ci])
			}
			if !valueEqual(scratch[ci], rows[ri][ci]) {
				t.Fatalf("Row(%d)[%d] = %v, want %v", ri, ci, scratch[ci], rows[ri][ci])
			}
		}
	}
	// Ragged input must be rejected, not silently mis-columnarized.
	if _, err := NewBatchFromRows([][]Value{{Int(1)}}, 2); err == nil {
		t.Fatal("ragged row accepted")
	}
}

// TestAppendCellKeyMirrorsGroupKey checks the column-side grouping key
// encoder against the value-side one byte for byte: the hash-table tests
// key their reference maps by column keys, so a cell must key exactly as
// its value does in every layout.
func TestAppendCellKeyMirrorsGroupKey(t *testing.T) {
	ring, err := crypto.NewKeyRing("kk", 128)
	if err != nil {
		t.Fatal(err)
	}
	det, err := EncryptValue(ring, algebra.SchemeDeterministic, String("abc"))
	if err != nil {
		t.Fatal(err)
	}
	ope, err := EncryptValue(ring, algebra.SchemeOPE, Int(42))
	if err != nil {
		t.Fatal(err)
	}
	vecs := [][]Value{
		{Int(-3), Int(0), Int(9)},
		{Float(1.5), Float(-0.25), Float(0)},
		{String("a"), String(""), String("zz")},
		{det, det, det},
		{ope, ope, ope},
		{Null(), Int(1), Null()},
		{Int(1), Float(2), String("x")}, // generic layout
	}
	for vi, vals := range vecs {
		col := NewColumn(vals)
		for i, v := range vals {
			want, wantErr := groupKey(v)
			got, gotErr := cellKey(&col, i)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("vec %d cell %d: err %v vs %v", vi, i, gotErr, wantErr)
			}
			if wantErr == nil && got != want {
				t.Fatalf("vec %d cell %d: key %q, want %q", vi, i, got, want)
			}
		}
	}
	// Randomized ciphertexts cannot key groups, from either encoder.
	rnd, err := EncryptValue(ring, algebra.SchemeRandom, Int(1))
	if err != nil {
		t.Fatal(err)
	}
	col := NewColumn([]Value{rnd, rnd})
	if _, err := cellKey(&col, 0); err == nil {
		t.Fatal("rnd cipher keyed a group")
	}
	if _, err := groupKey(rnd); err == nil {
		t.Fatal("rnd cipher keyed a group (row side)")
	}
}

// groupKey returns v's canonical grouping key as a string.
func groupKey(v Value) (string, error) {
	b, err := appendValueKey(nil, v)
	return string(b), err
}

// cellKey returns cell i's canonical grouping key as a string.
func cellKey(c *Column, i int) (string, error) {
	b, err := appendCellKey(nil, c, i)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// appendCellKey appends cell i's canonical grouping key to buf: byte for
// byte appendValueKey's for the cell's value, without materializing a
// Cipher for a ciphertext layout. Every cell key is self-delimiting, so
// keys of several cells concatenate injectively. It is the reference the
// hash tables' tests compare cellHash and sameKey against.
func appendCellKey(buf []byte, c *Column, i int) ([]byte, error) {
	if (c.Kind == ColCipherBytes || c.Kind == ColCipherDict) && !c.IsNull(i) {
		if err := keyScheme(c.Scheme); err != nil {
			return nil, err
		}
		return appendLenKey(buf, 'c', cipherCell(c, i)), nil
	}
	return appendValueKey(buf, c.Value(i))
}

// appendLenKey appends the key of a string or ciphertext cell: the tag, the
// length as a uvarint, then the bytes. The length prefix keeps a key of
// several cells injective whatever bytes a cell holds.
func appendLenKey[T string | []byte](buf []byte, tag byte, b T) []byte {
	buf = binary.AppendUvarint(append(buf, tag), uint64(len(b)))
	return append(buf, b...)
}

// appendValueKey appends v's canonical grouping key to buf: plaintext
// values by kind and content, deterministic/OPE ciphertexts by their bytes
// (equal plaintexts yield equal ciphertexts).
func appendValueKey(buf []byte, v Value) ([]byte, error) {
	switch v.Kind {
	case KNull:
		return append(buf, 0), nil
	case KInt:
		return binary.BigEndian.AppendUint64(append(buf, 1), uint64(v.I)), nil
	case KFloat:
		return binary.BigEndian.AppendUint64(append(buf, 2), math.Float64bits(v.F)), nil
	case KString:
		return appendLenKey(buf, 's', v.S), nil
	case KCipher:
		if err := keyScheme(v.C.Scheme); err != nil {
			return nil, err
		}
		return appendLenKey(buf, 'c', v.C.Data), nil
	}
	return nil, fmt.Errorf("exec: cannot key kind %d", v.Kind)
}
