package exec

import (
	"fmt"
	"sort"

	"mpq/internal/algebra"
	"mpq/internal/crypto"
	"mpq/internal/sql"
)

// Columnar predicate evaluation: compiled predicates consume a batch and a
// selection vector (ascending row indexes still alive) and return the
// surviving subset, so conjunct k only ever touches the rows conjunct k-1
// kept — the vectorized counterpart of short-circuiting. The monomorphic
// fast paths run tight loops over the typed column vectors (int64, float64,
// string, ciphertext bytes) with no Value boxing; columns in the generic
// layout fall back to per-cell evaluators with the same semantics (and
// error messages).

// colPred filters sel against b's columns. sel is ascending and may be
// rewritten in place; the result is the surviving subset, still ascending.
type colPred func(b *Batch, sel []int32) ([]int32, error)

// cellFn evaluates a compiled comparison against one materialized cell.
type cellFn func(v Value) (bool, error)

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
			// errors in) a later branch — exactly the row path's order.
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

// Three-way comparisons for the monomorphic loops.
func cmpI(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpF(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpS(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
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

// compileColCmpAV compiles an attribute-vs-literal comparison. The typed
// fast paths compare the column vector directly against the pre-resolved
// constant; dictionary columns resolve the constant against the dictionary
// once and then test codes; ciphertext-byte columns compare against the
// dispatched encrypted constant; generic columns fall back to the shared
// cell evaluator.
func (e *Executor) compileColCmpAV(c *algebra.CmpAV, r *schemaResolver) (colPred, error) {
	ix, err := r.colFor(c.A, c.Agg)
	if err != nil {
		return nil, err
	}
	konst, hasKonst := e.Consts[c]
	rhs := litValue(c.V)
	op := c.Op
	cell := e.compileCellAV(c)
	var memo *dictAVMemo // unsynchronized: a compiled pipeline runs on one goroutine
	return func(b *Batch, sel []int32) ([]int32, error) {
		col := &b.Cols[ix]
		out := sel[:0]
		switch {
		case col.Kind == ColInt && rhs.Kind == KFloat && op != sql.OpLike:
			rf := rhs.F
			for _, i := range sel {
				if col.IsNull(int(i)) {
					return nil, fmt.Errorf("exec: NULL comparison")
				}
				if opHolds(op, cmpF(float64(col.Ints[i]), rf)) {
					out = append(out, i)
				}
			}
		case col.Kind == ColFloat && rhs.Kind == KFloat && op != sql.OpLike:
			rf := rhs.F
			for _, i := range sel {
				if col.IsNull(int(i)) {
					return nil, fmt.Errorf("exec: NULL comparison")
				}
				if opHolds(op, cmpF(col.Floats[i], rf)) {
					out = append(out, i)
				}
			}
		case col.Kind == ColStr && rhs.Kind == KString && op == sql.OpLike:
			pat := rhs.S
			for _, i := range sel {
				if col.IsNull(int(i)) {
					return nil, fmt.Errorf("exec: LIKE over non-string")
				}
				if likeMatch(col.Strs[i], pat) {
					out = append(out, i)
				}
			}
		case col.Kind == ColStr && rhs.Kind == KString:
			rs := rhs.S
			for _, i := range sel {
				if col.IsNull(int(i)) {
					return nil, fmt.Errorf("exec: NULL comparison")
				}
				if opHolds(op, cmpS(col.Strs[i], rs)) {
					out = append(out, i)
				}
			}
		case col.Kind == ColDict && rhs.Kind == KString:
			// Resolve the constant against the dictionary once per dict:
			// verdict[code] answers the comparison (or LIKE match) for every
			// row carrying that code, so the row loop stays string-free.
			if memo == nil || memo.plainID != DictID(col.Dict) {
				v := make([]bool, len(col.Dict))
				if op == sql.OpLike {
					for e, s := range col.Dict {
						v[e] = likeMatch(s, rhs.S)
					}
				} else {
					for e, s := range col.Dict {
						v[e] = opHolds(op, cmpS(s, rhs.S))
					}
				}
				memo = &dictAVMemo{plainID: DictID(col.Dict), verdict: v}
			}
			verdict := memo.verdict
			if op == sql.OpLike {
				for _, i := range sel {
					if col.IsNull(int(i)) {
						return nil, fmt.Errorf("exec: LIKE over non-string")
					}
					if verdict[col.Codes[i]] {
						out = append(out, i)
					}
				}
			} else {
				for _, i := range sel {
					if col.IsNull(int(i)) {
						return nil, fmt.Errorf("exec: NULL comparison")
					}
					if verdict[col.Codes[i]] {
						out = append(out, i)
					}
				}
			}
		case col.Kind == ColCipherDict:
			// Mirror the ColCipherBytes guards exactly, then resolve the
			// encrypted constant against the cipher dictionary once.
			// CipherDict columns are built null-free (the dict encrypt fast
			// path skips nullable columns), so no per-row null checks.
			if !hasKonst {
				if len(sel) == 0 {
					return out, nil
				}
				return nil, fmt.Errorf("exec: no encrypted constant for condition %s (not dispatched?)", c)
			}
			if !konst.IsCipher() {
				if len(sel) == 0 {
					return out, nil
				}
				return nil, fmt.Errorf("exec: constant for %s is not encrypted", c)
			}
			switch col.Scheme {
			case algebra.SchemeDeterministic:
				if op != sql.OpEq && op != sql.OpNeq {
					if len(sel) == 0 {
						return out, nil
					}
					return nil, fmt.Errorf("exec: %s over deterministic ciphertext", op)
				}
			case algebra.SchemeOPE:
				// comparable below
			default:
				if len(sel) == 0 {
					return out, nil
				}
				return nil, fmt.Errorf("exec: cannot evaluate %s over %s ciphertext", op, col.Scheme)
			}
			if memo == nil || memo.cipherID != cipherDictID(col.CipherDict) {
				kd := konst.C.Data
				v := make([]bool, len(col.CipherDict))
				if col.Scheme == algebra.SchemeDeterministic {
					want := op == sql.OpEq
					for e, ct := range col.CipherDict {
						v[e] = crypto.Equal(ct, kd) == want
					}
				} else {
					for e, ct := range col.CipherDict {
						v[e] = opHolds(op, crypto.CompareOPE(ct, kd))
					}
				}
				memo = &dictAVMemo{cipherID: cipherDictID(col.CipherDict), verdict: v}
			}
			verdict := memo.verdict
			for _, i := range sel {
				if verdict[col.Codes[i]] {
					out = append(out, i)
				}
			}
		case col.Kind == ColCipherBytes:
			if !hasKonst {
				if len(sel) == 0 {
					return out, nil
				}
				return nil, fmt.Errorf("exec: no encrypted constant for condition %s (not dispatched?)", c)
			}
			if !konst.IsCipher() {
				if len(sel) == 0 {
					return out, nil
				}
				return nil, fmt.Errorf("exec: constant for %s is not encrypted", c)
			}
			switch col.Scheme {
			case algebra.SchemeDeterministic:
				if op != sql.OpEq && op != sql.OpNeq {
					if len(sel) == 0 {
						return out, nil
					}
					return nil, fmt.Errorf("exec: %s over deterministic ciphertext", op)
				}
				kd := konst.C.Data
				want := op == sql.OpEq
				for _, i := range sel {
					if crypto.Equal(col.Bytes[i], kd) == want {
						out = append(out, i)
					}
				}
			case algebra.SchemeOPE:
				kd := konst.C.Data
				for _, i := range sel {
					if opHolds(op, crypto.CompareOPE(col.Bytes[i], kd)) {
						out = append(out, i)
					}
				}
			default:
				if len(sel) == 0 {
					return out, nil
				}
				return nil, fmt.Errorf("exec: cannot evaluate %s over %s ciphertext", op, col.Scheme)
			}
		default:
			// Generic layout or kind/literal mismatch: per-cell fallback
			// with the row path's exact semantics.
			for _, i := range sel {
				ok, err := cell(col.Value(int(i)))
				if err != nil {
					return nil, err
				}
				if ok {
					out = append(out, i)
				}
			}
		}
		return out, nil
	}, nil
}

// compileColCmpAA compiles an attribute-vs-attribute comparison with typed
// fast paths when both columns are plaintext vectors or both are
// ciphertext-byte columns.
func (e *Executor) compileColCmpAA(c *algebra.CmpAA, r *schemaResolver) (colPred, error) {
	li, err := r.colFor(c.L, sql.AggNone)
	if err != nil {
		return nil, err
	}
	ri, err := r.colFor(c.R, sql.AggNone)
	if err != nil {
		return nil, err
	}
	op := c.Op
	cell := e.cellAA(c)
	return func(b *Batch, sel []int32) ([]int32, error) {
		lc, rc := &b.Cols[li], &b.Cols[ri]
		out := sel[:0]
		lPlain := lc.Kind == ColInt || lc.Kind == ColFloat || lc.Kind == ColStr || lc.Kind == ColDict
		rPlain := rc.Kind == ColInt || rc.Kind == ColFloat || rc.Kind == ColStr || rc.Kind == ColDict
		switch {
		case lc.Kind == ColInt && rc.Kind == ColInt:
			for _, i := range sel {
				if lc.IsNull(int(i)) || rc.IsNull(int(i)) {
					return nil, fmt.Errorf("exec: NULL comparison")
				}
				if opHolds(op, cmpI(lc.Ints[i], rc.Ints[i])) {
					out = append(out, i)
				}
			}
		case (lc.Kind == ColInt || lc.Kind == ColFloat) && (rc.Kind == ColInt || rc.Kind == ColFloat):
			for _, i := range sel {
				if lc.IsNull(int(i)) || rc.IsNull(int(i)) {
					return nil, fmt.Errorf("exec: NULL comparison")
				}
				var lf, rf float64
				if lc.Kind == ColInt {
					lf = float64(lc.Ints[i])
				} else {
					lf = lc.Floats[i]
				}
				if rc.Kind == ColInt {
					rf = float64(rc.Ints[i])
				} else {
					rf = rc.Floats[i]
				}
				if opHolds(op, cmpF(lf, rf)) {
					out = append(out, i)
				}
			}
		case lc.Kind == ColStr && rc.Kind == ColStr:
			for _, i := range sel {
				if lc.IsNull(int(i)) || rc.IsNull(int(i)) {
					return nil, fmt.Errorf("exec: NULL comparison")
				}
				if opHolds(op, cmpS(lc.Strs[i], rc.Strs[i])) {
					out = append(out, i)
				}
			}
		case lc.Kind == ColCipherBytes && rc.Kind == ColCipherBytes:
			if lc.Scheme != rc.Scheme {
				if len(sel) == 0 {
					return out, nil
				}
				return nil, fmt.Errorf("exec: comparing %s with %s ciphertexts", lc.Scheme, rc.Scheme)
			}
			switch lc.Scheme {
			case algebra.SchemeDeterministic:
				if op != sql.OpEq && op != sql.OpNeq {
					if len(sel) == 0 {
						return out, nil
					}
					return nil, fmt.Errorf("exec: %s over deterministic ciphertexts", op)
				}
				want := op == sql.OpEq
				for _, i := range sel {
					if crypto.Equal(lc.Bytes[i], rc.Bytes[i]) == want {
						out = append(out, i)
					}
				}
			case algebra.SchemeOPE:
				for _, i := range sel {
					if opHolds(op, crypto.CompareOPE(lc.Bytes[i], rc.Bytes[i])) {
						out = append(out, i)
					}
				}
			default:
				if len(sel) == 0 {
					return out, nil
				}
				return nil, fmt.Errorf("exec: cannot compare %s ciphertexts", lc.Scheme)
			}
		case lPlain != rPlain && (lc.Kind == ColCipherBytes || rc.Kind == ColCipherBytes ||
			lc.Kind == ColCipherDict || rc.Kind == ColCipherDict):
			if len(sel) == 0 {
				return out, nil
			}
			return nil, fmt.Errorf("exec: mixed plaintext/ciphertext comparison %s", c)
		default:
			for _, i := range sel {
				ok, err := cell(lc.Value(int(i)), rc.Value(int(i)))
				if err != nil {
					return nil, err
				}
				if ok {
					out = append(out, i)
				}
			}
		}
		return out, nil
	}, nil
}
