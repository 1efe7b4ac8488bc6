package exec

import (
	"fmt"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/crypto"
	"mpq/internal/sql"
)

// forceDict turns dictionary promotion on (or off) for one test, restoring
// the previous policy afterwards.
func forceDict(t testing.TB, on bool) {
	t.Helper()
	p := DictPolicy{MinRows: 1, MaxRatio: 1}
	if !on {
		p = DictPolicy{MinRows: 1, MaxRatio: 0}
	}
	old := SetDictPolicy(p)
	t.Cleanup(func() { SetDictPolicy(old) })
}

// dictStrings builds a string Value column with n cells cycling over k
// distinct entries, a NULL every nullEvery cells (0 = no NULLs).
func dictStrings(n, k, nullEvery int) []Value {
	vals := make([]Value, n)
	for i := range vals {
		if nullEvery > 0 && i%nullEvery == 0 {
			vals[i] = Null()
		} else {
			vals[i] = String(fmt.Sprintf("entry-%02d", i%k))
		}
	}
	return vals
}

func TestDictPromotionPolicy(t *testing.T) {
	vals := dictStrings(100, 4, 0)

	forceDict(t, true)
	c := maybeDictColumn(NewColumn(vals))
	if c.Kind != ColDict {
		t.Fatalf("forced-on policy did not promote: kind %v", c.Kind)
	}
	if len(c.Dict) != 4 {
		t.Fatalf("dictionary has %d entries, want 4", len(c.Dict))
	}

	if off := SetDictPolicy(DictPolicy{MinRows: 1, MaxRatio: 0}); off.MinRows != 1 {
		t.Fatalf("SetDictPolicy returned %+v, want the forced-on policy", off)
	}
	if c := maybeDictColumn(NewColumn(vals)); c.Kind != ColStr {
		t.Fatalf("forced-off policy promoted: kind %v", c.Kind)
	}

	// MinRows gates short columns; MaxRatio gates high-cardinality ones.
	SetDictPolicy(DictPolicy{MinRows: 1000, MaxRatio: 1})
	if c := maybeDictColumn(NewColumn(vals)); c.Kind != ColStr {
		t.Fatalf("promoted below MinRows: kind %v", c.Kind)
	}
	SetDictPolicy(DictPolicy{MinRows: 1, MaxRatio: 0.5})
	distinct := make([]Value, 100)
	for i := range distinct {
		distinct[i] = String(fmt.Sprintf("unique-%03d", i))
	}
	if c := maybeDictColumn(NewColumn(distinct)); c.Kind != ColStr {
		t.Fatalf("promoted an all-distinct column: kind %v", c.Kind)
	}
	if CurrentDictPolicy().MaxRatio != 0.5 {
		t.Fatalf("CurrentDictPolicy = %+v", CurrentDictPolicy())
	}

	// Non-string columns are never promoted.
	forceDict(t, true)
	ints := make([]Value, 100)
	for i := range ints {
		ints[i] = Int(int64(i % 3))
	}
	if c := maybeDictColumn(NewColumn(ints)); c.Kind != ColInt {
		t.Fatalf("promoted an int column: kind %v", c.Kind)
	}
}

// TestDictColumnFidelity proves code↔string fidelity through Value, slice
// windows (aligned and unaligned), and gather — including NULL cells, whose
// codes are the reserved sentinel and whose truth lives in the bitmap.
func TestDictColumnFidelity(t *testing.T) {
	forceDict(t, true)
	vals := dictStrings(200, 7, 13)
	plain := NewColumn(vals)
	c := maybeDictColumn(plain)
	if c.Kind != ColDict {
		t.Fatal("not promoted")
	}
	if c.Len() != 200 {
		t.Fatalf("Len = %d", c.Len())
	}
	for i, want := range vals {
		if c.IsNull(i) != (want.Kind == KNull) {
			t.Fatalf("cell %d: IsNull = %v", i, c.IsNull(i))
		}
		if want.Kind == KNull {
			if c.Codes[i] != dictNullCode {
				t.Fatalf("cell %d: NULL code %d, want sentinel", i, c.Codes[i])
			}
			continue
		}
		if got := c.Value(i); got.Kind != KString || got.S != want.S {
			t.Fatalf("cell %d: %v, want %v", i, got, want)
		}
	}

	// Slice windows (64-aligned and not) share the dictionary and stay true.
	for _, w := range [][2]int{{0, 200}, {64, 128}, {13, 57}, {199, 200}, {50, 50}} {
		s := c.slice(w[0], w[1])
		if s.Len() != w[1]-w[0] {
			t.Fatalf("slice %v: Len %d", w, s.Len())
		}
		if s.Len() > 0 && DictID(s.Dict) != DictID(c.Dict) {
			t.Fatalf("slice %v rebuilt the dictionary", w)
		}
		for i := 0; i < s.Len(); i++ {
			want := vals[w[0]+i]
			if s.IsNull(i) != (want.Kind == KNull) {
				t.Fatalf("slice %v cell %d: IsNull = %v", w, i, s.IsNull(i))
			}
			if want.Kind != KNull && s.Value(i).S != want.S {
				t.Fatalf("slice %v cell %d: %v, want %v", w, i, s.Value(i), want)
			}
		}
	}

	// Gather keeps the shared dictionary and reorders codes.
	sel := []int32{199, 0, 13, 14, 77}
	g := c.gather(sel)
	if DictID(g.Dict) != DictID(c.Dict) {
		t.Fatal("gather rebuilt the dictionary")
	}
	for i, ri := range sel {
		want := vals[ri]
		if g.IsNull(i) != (want.Kind == KNull) {
			t.Fatalf("gather cell %d: IsNull = %v", i, g.IsNull(i))
		}
		if want.Kind != KNull && g.Value(i).S != want.S {
			t.Fatalf("gather cell %d: %v, want %v", i, g.Value(i), want)
		}
	}
}

// TestDictEncryptDecryptRoundTrip drives a null-free dict column through the
// deterministic dictionary fast path and back: the ciphertext dictionary has
// one entry per distinct value, codes are shared zero-copy, and decryption
// restores the exact plaintext dictionary.
func TestDictEncryptDecryptRoundTrip(t *testing.T) {
	forceDict(t, true)
	ring, err := crypto.NewKeyRing("kD", testPaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor()
	vals := dictStrings(500, 9, 0)
	col := maybeDictColumn(NewColumn(vals))
	if col.Kind != ColDict {
		t.Fatal("not promoted")
	}

	before := ReadDictStats()
	var memo *dictEncMemo
	enc, err := encryptDictColumn(e, ring, algebra.SchemeDeterministic, &col, &memo)
	if err != nil {
		t.Fatal(err)
	}
	// A second batch over the same dictionary reuses the memoized cipher
	// dict: same identity, no re-encryption.
	enc2, err := encryptDictColumn(e, ring, algebra.SchemeDeterministic, &col, &memo)
	if err != nil {
		t.Fatal(err)
	}
	if cipherDictID(enc2.CipherDict) != cipherDictID(enc.CipherDict) {
		t.Fatal("second batch re-encrypted the dictionary")
	}
	if enc.Kind != ColCipherDict || len(enc.CipherDict) != len(col.Dict) {
		t.Fatalf("cipher dict: kind %v, %d entries (want %d)", enc.Kind, len(enc.CipherDict), len(col.Dict))
	}
	if &enc.Codes[0] != &col.Codes[0] {
		t.Fatal("encryption copied the code vector")
	}
	// The ciphertexts are the same bytes per-value det encryption produces.
	det, err := ring.Det()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range col.Dict {
		pt, err := encodePlain(String(s))
		if err != nil {
			t.Fatal(err)
		}
		want, err := det.Encrypt(pt)
		if err != nil {
			t.Fatal(err)
		}
		if string(enc.CipherDict[i]) != string(want) {
			t.Fatalf("entry %d: cipher differs from per-value Encrypt", i)
		}
	}

	dec, err := e.decryptColumn(&enc, func(id string) (*crypto.KeyRing, error) { return ring, nil })
	if err != nil {
		t.Fatal(err)
	}
	if dec.Kind != ColDict {
		t.Fatalf("decrypt kind %v", dec.Kind)
	}
	for i := range vals {
		if dec.Value(i).S != vals[i].S {
			t.Fatalf("cell %d: %v, want %v", i, dec.Value(i), vals[i])
		}
	}

	after := ReadDictStats()
	if after.EncEntries-before.EncEntries != 9 || after.DecEntries-before.DecEntries != 9 {
		t.Fatalf("entry counters moved by %d/%d, want 9/9",
			after.EncEntries-before.EncEntries, after.DecEntries-before.DecEntries)
	}
	// Both encrypt calls cover their cells; only the first encrypts entries.
	if after.EncCells-before.EncCells != 1000 || after.DecCells-before.DecCells != 500 {
		t.Fatalf("cell counters moved by %d/%d, want 1000/500",
			after.EncCells-before.EncCells, after.DecCells-before.DecCells)
	}
}

// dictPredBatch builds a promoted dict batch and a compiled equality
// predicate over it, shared by the predicate test and benchmark.
func dictPredBatch(tb testing.TB, n int) (*Batch, colPred) {
	tb.Helper()
	a := algebra.A("R", "s")
	vals := dictStrings(n, 8, 0)
	col := maybeDictColumn(NewColumn(vals))
	if col.Kind != ColDict {
		tb.Fatal("not promoted")
	}
	e := NewExecutor()
	pred, err := e.compileColPred(
		&algebra.CmpAV{A: a, Op: sql.OpEq, V: sql.StringValue("entry-03")},
		plainResolver([]algebra.Attr{a}, nil, nil))
	if err != nil {
		tb.Fatal(err)
	}
	return &Batch{Cols: []Column{col}, N: n}, pred
}

// TestDictPredicateMatchesPlain checks the code-resolved equality predicate
// agrees with the same predicate over the unpromoted string column.
func TestDictPredicateMatchesPlain(t *testing.T) {
	forceDict(t, true)
	b, pred := dictPredBatch(t, 300)
	sel := make([]int32, b.N)
	for i := range sel {
		sel[i] = int32(i)
	}
	got, err := pred(b, sel)
	if err != nil {
		t.Fatal(err)
	}
	var want []int32
	for i := 0; i < b.N; i++ {
		if b.Cols[0].Value(i).S == "entry-03" {
			want = append(want, int32(i))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d matches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("match %d: row %d, want %d", i, got[i], want[i])
		}
	}
}

// BenchmarkDictPredicate is the CI allocation guard for the dict predicate
// interior: steady state (memo warm) must run at 0 allocs/op — no dictionary
// strings materialized per batch.
func BenchmarkDictPredicate(b *testing.B) {
	forceDict(b, true)
	bat, pred := dictPredBatch(b, 4096)
	tmpl := make([]int32, bat.N)
	for i := range tmpl {
		tmpl[i] = int32(i)
	}
	sel := make([]int32, bat.N)
	copy(sel, tmpl)
	if _, err := pred(bat, sel); err != nil { // warm the memo
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(sel, tmpl)
		if _, err := pred(bat, sel[:bat.N]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncryptDictColumn pits the dictionary det-encryption fast path
// (each distinct value encrypted once) against per-cell column encryption of
// the same data.
func BenchmarkEncryptDictColumn(b *testing.B) {
	forceDict(b, true)
	ring, err := crypto.NewKeyRing("kB", testPaillierBits)
	if err != nil {
		b.Fatal(err)
	}
	e := NewExecutor()
	const n, k = 8192, 16
	vals := dictStrings(n, k, 0)
	col := maybeDictColumn(NewColumn(vals))
	if col.Kind != ColDict {
		b.Fatal("not promoted")
	}
	b.Run("dict", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Fresh memo per iteration: measure the dictionary encryption
			// itself, not the cross-batch memo hit.
			var memo *dictEncMemo
			if _, err := encryptDictColumn(e, ring, algebra.SchemeDeterministic, &col, &memo); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n)/float64(k), "cells/entry")
	})
	b.Run("per-cell", func(b *testing.B) {
		dst := make([]Value, n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := encryptColumnPar(e, ring, algebra.SchemeDeterministic, vals, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}
