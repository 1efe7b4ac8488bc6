package exec

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"mpq/internal/algebra"
	"mpq/internal/crypto"
	"mpq/internal/sql"
)

// Columnar predicate evaluation: compiled predicates consume a batch and a
// selection vector (ascending row indexes still alive) and return the
// surviving subset, so conjunct k only ever touches the rows conjunct k-1
// kept — the vectorized counterpart of short-circuiting.
//
// A comparison is settled in three places. At build, each operand's
// declared form — plaintext, or ciphertexts under one scheme, as the
// extended plan fixes it (Sec. 5) — decides once whether the comparison
// can be evaluated at all (admit). Per batch, checkLayout confirms each
// column arrives in its declared form. Per row, one loop per layout family
// runs: keepCmp over typed plaintext vectors, keepCipher over ciphertext
// bytes, keepVerdict over dictionary codes, and cellVerdict cell by cell
// over anything else. Every one of them hands a NULL operand to
// nullVerdict.

// colPred filters sel against b's columns. sel is ascending and may be
// rewritten in place; the result is the surviving subset, still ascending.
type colPred func(b *Batch, sel []int32) ([]int32, error)

// compileColPred compiles a predicate tree to its columnar form, with
// every reference resolved to a column index through r.
func (e *Executor) compileColPred(p algebra.Pred, r *schemaResolver) (colPred, error) {
	switch x := p.(type) {
	case *algebra.CmpAV:
		return e.compileColCmpAV(x, r)
	case *algebra.CmpAA:
		return e.compileColCmpAA(x, r)
	case *algebra.AndPred:
		subs := make([]colPred, len(x.Preds))
		for i, q := range x.Preds {
			f, err := e.compileColPred(q, r)
			if err != nil {
				return nil, err
			}
			subs[i] = f
		}
		return func(b *Batch, sel []int32) ([]int32, error) {
			var err error
			for _, f := range subs {
				if len(sel) == 0 {
					return sel, nil
				}
				if sel, err = f(b, sel); err != nil {
					return nil, err
				}
			}
			return sel, nil
		}, nil
	case *algebra.OrPred:
		subs := make([]colPred, len(x.Preds))
		for i, q := range x.Preds {
			f, err := e.compileColPred(q, r)
			if err != nil {
				return nil, err
			}
			subs[i] = f
		}
		return func(b *Batch, sel []int32) ([]int32, error) {
			// Disjuncts keep short-circuit semantics set-wise: disjunct k
			// is evaluated only on the rows every earlier disjunct
			// rejected, so a row accepted early never reaches (and never
			// errors in) a later branch.
			undecided := append([]int32(nil), sel...)
			var accepted [][]int32
			for _, f := range subs {
				if len(undecided) == 0 {
					break
				}
				work := append([]int32(nil), undecided...)
				passed, err := f(b, work)
				if err != nil {
					return nil, err
				}
				if len(passed) == 0 {
					continue
				}
				accepted = append(accepted, passed)
				undecided = diffSel(undecided, passed)
			}
			out := sel[:0]
			for _, lst := range accepted {
				out = append(out, lst...)
			}
			if len(accepted) > 1 {
				sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			}
			return out, nil
		}, nil
	case *algebra.NotPred:
		inner, err := e.compileColPred(x.Inner, r)
		if err != nil {
			return nil, err
		}
		return func(b *Batch, sel []int32) ([]int32, error) {
			work := append([]int32(nil), sel...)
			passed, err := inner(b, work)
			if err != nil {
				return nil, err
			}
			return diffSel(sel, passed), nil
		}, nil
	}
	return nil, fmt.Errorf("exec: unknown predicate %T", p)
}

// diffSel returns base minus sub (both ascending, sub ⊆ base), reusing
// base's storage.
func diffSel(base, sub []int32) []int32 {
	out := base[:0]
	si := 0
	for _, i := range base {
		if si < len(sub) && sub[si] == i {
			si++
			continue
		}
		out = append(out, i)
	}
	return out
}

// plain is the declared form of a plaintext operand; a ciphertext operand's
// form is its scheme.
const plain algebra.Scheme = ""

// formName renders a declared form for error messages.
func formName(f algebra.Scheme) string {
	if f == plain {
		return "plaintext"
	}
	return string(f) + " ciphertext"
}

// formOf is the form of one materialized cell.
func formOf(v Value) algebra.Scheme {
	if v.IsCipher() {
		return v.C.Scheme
	}
	return plain
}

// admit is the one admissibility rule, decided at build: op can be
// evaluated between operands of declared forms l and r only if both forms
// agree and the form supports op. Plaintext supports every comparison,
// deterministic ciphertexts = and <> only, OPE ciphertexts every comparison
// but LIKE, and randomized and Paillier ciphertexts none.
func admit(c algebra.Pred, op sql.CompareOp, l, r algebra.Scheme) error {
	switch {
	case l != r:
		return fmt.Errorf("exec: comparing %s with %s in %s", formName(l), formName(r), c)
	case l == plain,
		l == algebra.SchemeDeterministic && (op == sql.OpEq || op == sql.OpNeq),
		l == algebra.SchemeOPE && op != sql.OpLike:
		return nil
	}
	return fmt.Errorf("exec: cannot evaluate %s over %s in %s", op, formName(l), c)
}

// cipherCmp compares two ciphertexts of one admitted scheme by their bytes:
// OPE ciphertexts order as their plaintexts do, and deterministic ones are
// equal exactly when their plaintexts are. admit lets only = and <> reach
// deterministic ones, so their byte order is never consulted.
func cipherCmp(a, b []byte) int { return crypto.CompareOPE(a, b) }

// checkLayout is the one run-time check a comparison keeps: the column
// holding a must arrive in the form the plan declared for it. A generic
// column is checked cell by cell in cellVerdict.
func checkLayout(col *Column, f algebra.Scheme, a algebra.Attr) error {
	got := plain
	if col.Kind == ColCipherBytes || col.Kind == ColCipherDict {
		got = col.Scheme
	}
	if col.Kind == ColAny || got == f {
		return nil
	}
	return fmt.Errorf("exec: %s arrives as %s where the plan declares %s", a, formName(got), formName(f))
}

// nullVerdict decides a comparison one of whose operands is NULL. SQL makes
// it unknown, which drops the row; this engine still fails the query.
func nullVerdict() (bool, error) {
	return false, errors.New("exec: NULL comparison")
}

// cellVerdict decides op between two materialized cells whose declared form
// is f: the loop of last resort, for generic columns, LIKE and mixed
// numeric kinds.
func cellVerdict(op sql.CompareOp, f algebra.Scheme, a, b Value) (bool, error) {
	switch {
	case a.Kind == KNull || b.Kind == KNull:
		return nullVerdict()
	case formOf(a) != f || formOf(b) != f:
		got := formOf(a)
		if got == f {
			got = formOf(b)
		}
		return false, fmt.Errorf("exec: comparing a %s cell where the plan declares %s", formName(got), formName(f))
	case f != plain:
		return opHolds(op, cipherCmp(a.C.Data, b.C.Data)), nil
	case op == sql.OpLike:
		if a.Kind != KString || b.Kind != KString {
			return false, fmt.Errorf("exec: LIKE over non-string")
		}
		return likeMatch(a.S, b.S), nil
	}
	c, err := compare(a, b)
	return err == nil && opHolds(op, c), err
}

// cmp3 is the three-way comparison of the typed loops.
func cmp3[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// holdsTable answers opHolds(op, c) at index c+1, so a loop keeps a row
// by lookup rather than by branching on op.
func holdsTable(op sql.CompareOp) (t [3]bool) {
	for c := range t {
		t[c] = opHolds(op, c-1)
	}
	return t
}

// keepCmp is the one typed loop: it keeps the rows i of sel for which op
// holds between l[i] and r[i&rm]. rm is 0 when r is a one-cell constant and
// -1 when it is a second column. The null bitmaps ln and rn are read once
// per batch: without a NULL the loop runs check-free.
func keepCmp[T int64 | float64 | string](op sql.CompareOp, sel []int32, l, r []T, rm int, ln, rn []uint64) ([]int32, error) {
	holds := holdsTable(op)
	j := 0
	if !anyBit(ln) && !anyBit(rn) {
		for _, i := range sel {
			sel[j] = i
			if holds[cmp3(l[i], r[int(i)&rm])+1] {
				j++
			}
		}
		return sel[:j], nil
	}
	for _, i := range sel {
		ok, err := false, error(nil)
		if bit(ln, int(i)) || bit(rn, int(i)&rm) {
			ok, err = nullVerdict()
		} else {
			ok = holds[cmp3(l[i], r[int(i)&rm])+1]
		}
		if err != nil {
			return nil, err
		}
		sel[j] = i
		if ok {
			j++
		}
	}
	return sel[:j], nil
}

// keepCipher is keepCmp over the ciphertext-byte layouts, compared by
// cipherCmp. Those layouts hold no NULL cell (detectColKind gives a column
// with one a generic layout).
func keepCipher(op sql.CompareOp, sel []int32, l, r *Column, rm int) []int32 {
	holds := holdsTable(op)
	j := 0
	for _, i := range sel {
		sel[j] = i
		if holds[cipherCmp(cipherCell(l, int(i)), cipherCell(r, int(i)&rm))+1] {
			j++
		}
	}
	return sel[:j]
}

// keepVerdict keeps the rows whose dictionary code's memoized verdict holds.
func keepVerdict(sel []int32, col *Column, verdict []bool) ([]int32, error) {
	nulls := anyBit(col.Nulls)
	j := 0
	for _, i := range sel {
		ok, err := false, error(nil)
		if nulls && bit(col.Nulls, int(i)) {
			ok, err = nullVerdict() // a NULL cell's code indexes no entry
		} else {
			ok = verdict[col.Codes[i]]
		}
		if err != nil {
			return nil, err
		}
		sel[j] = i
		if ok {
			j++
		}
	}
	return sel[:j], nil
}

// keep runs one admitted comparison over a batch: op between columns l and
// r of declared form f, r's row index masked by rm as in keepCmp. Typed
// plaintext pairs take keepCmp, ciphertext pairs keepCipher, and the rest,
// LIKE included, cellVerdict.
func keep(op sql.CompareOp, f algebra.Scheme, sel []int32, l, r *Column, rm int) ([]int32, error) {
	switch {
	case op == sql.OpLike:
	case l.Kind == ColInt && r.Kind == ColInt:
		return keepCmp(op, sel, l.Ints, r.Ints, rm, l.Nulls, r.Nulls)
	case l.Kind == ColFloat && r.Kind == ColFloat:
		return keepCmp(op, sel, l.Floats, r.Floats, rm, l.Nulls, r.Nulls)
	case l.Kind == ColStr && r.Kind == ColStr:
		return keepCmp(op, sel, l.Strs, r.Strs, rm, l.Nulls, r.Nulls)
	case f != plain && l.Kind != ColAny && r.Kind != ColAny:
		return keepCipher(op, sel, l, r, rm), nil
	}
	out := sel[:0]
	for _, i := range sel {
		ok, err := cellVerdict(op, f, l.Value(int(i)), r.Value(int(i)&rm))
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, i)
		}
	}
	return out, nil
}

// dictAVMemo caches one attribute-vs-constant predicate's verdict per
// dictionary entry, so the per-row loop reduces to a code-indexed bool
// lookup and never touches the dictionary strings (an equality miss keeps
// every verdict false and selects nothing).
type dictAVMemo struct {
	plainID  *string // identity of the plaintext dictionary memoized
	cipherID *[]byte // identity of the cipher dictionary memoized
	verdict  []bool  // verdict[code] — does the predicate hold for entry code
}

// newDictAVMemo decides op against the one-cell constant k for every entry
// of col's dictionary.
func newDictAVMemo(col *Column, op sql.CompareOp, k *Column) *dictAVMemo {
	if col.Kind == ColCipherDict {
		v := make([]bool, len(col.CipherDict))
		for e, ct := range col.CipherDict {
			v[e] = opHolds(op, cipherCmp(ct, k.Bytes[0]))
		}
		return &dictAVMemo{cipherID: cipherDictID(col.CipherDict), verdict: v}
	}
	v := make([]bool, len(col.Dict))
	for e, s := range col.Dict {
		v[e], _ = cellVerdict(op, plain, String(s), k.Value(0)) // two non-NULL strings: no error
	}
	return &dictAVMemo{plainID: DictID(col.Dict), verdict: v}
}

// compileColCmpAV compiles an attribute-vs-constant comparison. The
// constant — the literal, or the encrypted constant dispatched for an
// encrypted attribute — becomes a one-cell column, so the comparison runs
// as attribute against attribute with the constant's row index masked to 0.
// Dictionary columns resolve the constant against the dictionary once and
// then test codes.
func (e *Executor) compileColCmpAV(c *algebra.CmpAV, r *schemaResolver) (colPred, error) {
	ix, form, _, err := r.colFor(c.A, c.Agg)
	if err != nil {
		return nil, err
	}
	konst := litValue(c.V)
	if form != plain {
		var ok bool
		if konst, ok = e.Consts[c]; !ok {
			return nil, fmt.Errorf("exec: no encrypted constant for condition %s (not dispatched?)", c)
		}
	}
	op := c.Op
	if err := admit(c, op, form, formOf(konst)); err != nil {
		return nil, err
	}
	// The constant as a one-cell column. An integral literal k with
	// |k| < 2^53 is also kept as an int cell, so int columns take the int64
	// loop: float64(x) is exact for |x| <= 2^53 and beyond it stays on the
	// same side of k, so x op k answers as float64(x) op k does.
	lit := &struct {
		k, kInt Column
		memo    *dictAVMemo // unsynchronized: a compiled pipeline runs on one goroutine
	}{k: NewColumn([]Value{konst})}
	if f := konst.F; konst.Kind == KFloat && f == math.Trunc(f) && math.Abs(f) < 1<<53 {
		lit.kInt = Column{Kind: ColInt, Ints: []int64{int64(f)}}
	}
	return func(b *Batch, sel []int32) ([]int32, error) {
		col := &b.Cols[ix]
		if err := checkLayout(col, form, c.A); err != nil {
			return nil, err
		}
		switch {
		case col.Kind == ColDict && lit.k.Kind == ColStr || col.Kind == ColCipherDict:
			if m := lit.memo; m == nil || m.plainID != DictID(col.Dict) || m.cipherID != cipherDictID(col.CipherDict) {
				lit.memo = newDictAVMemo(col, op, &lit.k)
			}
			return keepVerdict(sel, col, lit.memo.verdict)
		case col.Kind == ColInt && lit.kInt.Kind == ColInt:
			return keep(op, form, sel, col, &lit.kInt, 0)
		}
		return keep(op, form, sel, col, &lit.k, 0)
	}, nil
}

// compileColCmpAA compiles an attribute-vs-attribute comparison.
func (e *Executor) compileColCmpAA(c *algebra.CmpAA, r *schemaResolver) (colPred, error) {
	li, lf, _, err := r.colFor(c.L, sql.AggNone)
	if err != nil {
		return nil, err
	}
	ri, rf, _, err := r.colFor(c.R, sql.AggNone)
	if err != nil {
		return nil, err
	}
	op := c.Op
	if err := admit(c, op, lf, rf); err != nil {
		return nil, err
	}
	return func(b *Batch, sel []int32) ([]int32, error) {
		lc, rc := &b.Cols[li], &b.Cols[ri]
		if err := checkLayout(lc, lf, c.L); err != nil {
			return nil, err
		}
		if err := checkLayout(rc, rf, c.R); err != nil {
			return nil, err
		}
		return keep(op, lf, sel, lc, rc, -1)
	}, nil
}
