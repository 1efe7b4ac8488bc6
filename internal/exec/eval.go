package exec

import (
	"fmt"
	"math"
	"strings"

	"mpq/internal/algebra"
	"mpq/internal/crypto"
	"mpq/internal/profile"
	"mpq/internal/sql"
)

// colResolver maps predicate references to column indices, resolving
// aggregate references (HAVING avg(P) > 100) to the matching aggregate
// output column of the group-by beneath.
type colResolver struct {
	table   *Table
	aggCols map[string]int
}

func aggKey(f sql.AggFunc, a algebra.Attr, star bool) string {
	if star {
		return "*" + string(f)
	}
	return string(f) + "|" + a.String()
}

// newColResolver builds a resolver for rows of t produced by source.
func newColResolver(t *Table, source algebra.Node) *colResolver {
	r := &colResolver{table: t, aggCols: make(map[string]int)}
	// Unwrap encryption/decryption wrappers to find a group-by beneath.
	n := source
	for {
		switch x := n.(type) {
		case *algebra.Encrypt:
			n = x.Child
			continue
		case *algebra.Decrypt:
			n = x.Child
			continue
		case *algebra.GroupBy:
			for j, sp := range x.Aggs {
				k := aggKey(sp.Func, sp.Attr, sp.Star)
				if _, dup := r.aggCols[k]; !dup {
					r.aggCols[k] = len(x.Keys) + j
				}
			}
		}
		break
	}
	return r
}

// joinResolver builds a plain resolver over the join output (no aggregate
// columns can be referenced by a join condition).
func joinResolver(t *Table, _ *algebra.Join) *colResolver {
	return &colResolver{table: t, aggCols: map[string]int{}}
}

// colFor returns the column index for a value comparison's left side.
func (r *colResolver) colFor(a algebra.Attr, agg sql.AggFunc) (int, error) {
	if agg != sql.AggNone {
		if ix, ok := r.aggCols[aggKey(agg, a, algebra.IsSynthetic(a))]; ok {
			return ix, nil
		}
	}
	if ix := r.table.ColIndex(a); ix >= 0 {
		return ix, nil
	}
	return -1, fmt.Errorf("exec: attribute %s not in row", a)
}

// evalPred evaluates a predicate over one row.
func (e *Executor) evalPred(p algebra.Pred, row []Value, r *colResolver) (bool, error) {
	switch x := p.(type) {
	case *algebra.CmpAV:
		return e.evalCmpAV(x, row, r)
	case *algebra.CmpAA:
		return e.evalCmpAA(x, row, r)
	case *algebra.AndPred:
		for _, q := range x.Preds {
			ok, err := e.evalPred(q, row, r)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case *algebra.OrPred:
		for _, q := range x.Preds {
			ok, err := e.evalPred(q, row, r)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	case *algebra.NotPred:
		ok, err := e.evalPred(x.Inner, row, r)
		return !ok, err
	}
	return false, fmt.Errorf("exec: unknown predicate %T", p)
}

func (e *Executor) evalCmpAV(c *algebra.CmpAV, row []Value, r *colResolver) (bool, error) {
	ix, err := r.colFor(c.A, c.Agg)
	if err != nil {
		return false, err
	}
	v := row[ix]
	if v.IsCipher() {
		return e.evalCipherConst(c, v)
	}
	rhs := litValue(c.V)
	if c.Op == sql.OpLike {
		if v.Kind != KString || !rhs.IsCipher() && rhs.Kind != KString {
			return false, fmt.Errorf("exec: LIKE over non-string")
		}
		return likeMatch(v.S, rhs.S), nil
	}
	cmp, err := compare(v, rhs)
	if err != nil {
		return false, err
	}
	return opHolds(c.Op, cmp), nil
}

func (e *Executor) evalCipherConst(c *algebra.CmpAV, v Value) (bool, error) {
	konst, ok := e.Consts[c]
	if !ok {
		return false, fmt.Errorf("exec: no encrypted constant for condition %s (not dispatched?)", c)
	}
	if !konst.IsCipher() {
		return false, fmt.Errorf("exec: constant for %s is not encrypted", c)
	}
	switch v.C.Scheme {
	case algebra.SchemeDeterministic:
		if c.Op != sql.OpEq && c.Op != sql.OpNeq {
			return false, fmt.Errorf("exec: %s over deterministic ciphertext", c.Op)
		}
		eq := crypto.Equal(v.C.Data, konst.C.Data)
		if c.Op == sql.OpNeq {
			return !eq, nil
		}
		return eq, nil
	case algebra.SchemeOPE:
		cmp := crypto.CompareOPE(v.C.Data, konst.C.Data)
		return opHolds(c.Op, cmp), nil
	default:
		return false, fmt.Errorf("exec: cannot evaluate %s over %s ciphertext", c.Op, v.C.Scheme)
	}
}

func (e *Executor) evalCmpAA(c *algebra.CmpAA, row []Value, r *colResolver) (bool, error) {
	li, err := r.colFor(c.L, sql.AggNone)
	if err != nil {
		return false, err
	}
	ri, err := r.colFor(c.R, sql.AggNone)
	if err != nil {
		return false, err
	}
	l, rv := row[li], row[ri]
	switch {
	case l.IsCipher() && rv.IsCipher():
		if l.C.Scheme != rv.C.Scheme {
			return false, fmt.Errorf("exec: comparing %s with %s ciphertexts", l.C.Scheme, rv.C.Scheme)
		}
		switch l.C.Scheme {
		case algebra.SchemeDeterministic:
			if c.Op != sql.OpEq && c.Op != sql.OpNeq {
				return false, fmt.Errorf("exec: %s over deterministic ciphertexts", c.Op)
			}
			eq := crypto.Equal(l.C.Data, rv.C.Data)
			if c.Op == sql.OpNeq {
				return !eq, nil
			}
			return eq, nil
		case algebra.SchemeOPE:
			return opHolds(c.Op, crypto.CompareOPE(l.C.Data, rv.C.Data)), nil
		default:
			return false, fmt.Errorf("exec: cannot compare %s ciphertexts", l.C.Scheme)
		}
	case !l.IsCipher() && !rv.IsCipher():
		cmp, err := compare(l, rv)
		if err != nil {
			return false, err
		}
		return opHolds(c.Op, cmp), nil
	default:
		return false, fmt.Errorf("exec: mixed plaintext/ciphertext comparison %s", c)
	}
}

// opHolds evaluates a three-way comparison result against an operator.
func opHolds(op sql.CompareOp, cmp int) bool {
	switch op {
	case sql.OpEq:
		return cmp == 0
	case sql.OpNeq:
		return cmp != 0
	case sql.OpLt:
		return cmp < 0
	case sql.OpLeq:
		return cmp <= 0
	case sql.OpGt:
		return cmp > 0
	case sql.OpGeq:
		return cmp >= 0
	}
	return false
}

// litValue converts a SQL literal to a runtime value.
func litValue(v sql.Value) Value {
	if v.IsString {
		return String(v.Str)
	}
	return Float(v.Num)
}

// likeMatch implements SQL LIKE with % (any run) and _ (any one char).
func likeMatch(s, pattern string) bool {
	var rec func(si, pi int) bool
	rec = func(si, pi int) bool {
		for pi < len(pattern) {
			switch pattern[pi] {
			case '%':
				for k := si; k <= len(s); k++ {
					if rec(k, pi+1) {
						return true
					}
				}
				return false
			case '_':
				if si >= len(s) {
					return false
				}
				si++
				pi++
			default:
				if si >= len(s) || s[si] != pattern[pi] {
					return false
				}
				si++
				pi++
			}
		}
		return si == len(s)
	}
	return rec(0, 0)
}

// ---------------------------------------------------------------------------
// Constant dispatch

// AttrKinds maps attributes to their plaintext value kinds, used to encode
// predicate constants exactly as the stored values are encoded.
type AttrKinds map[algebra.Attr]Kind

// KindsFromCatalog derives attribute kinds from a catalog.
func KindsFromCatalog(cat *algebra.Catalog) AttrKinds {
	out := make(AttrKinds)
	for _, name := range cat.Names() {
		rel := cat.Relation(name)
		for _, col := range rel.Columns {
			a := algebra.Attr{Rel: name, Name: col.Name}
			switch col.Type {
			case algebra.TInt, algebra.TDate:
				out[a] = KInt
			case algebra.TFloat:
				out[a] = KFloat
			default:
				out[a] = KString
			}
		}
	}
	return out
}

// PrepareConstants walks an extended plan and pre-encrypts every literal
// compared against an attribute that is encrypted at that point, using the
// keys of the dispatching subject. The resulting cache ships with the
// sub-queries so that providers can evaluate conditions over ciphertexts
// without holding keys.
func PrepareConstants(root algebra.Node, keys *crypto.KeyStore, kinds AttrKinds) (ConstCache, error) {
	// Per-attribute scheme and key from the plan's encryption operations.
	schemes := make(map[algebra.Attr]algebra.Scheme)
	keyIDs := make(map[algebra.Attr]string)
	algebra.PostOrder(root, func(n algebra.Node) {
		switch x := n.(type) {
		case *algebra.Encrypt:
			for _, a := range x.Attrs {
				schemes[a] = x.Schemes[a]
				keyIDs[a] = x.KeyIDs[a]
			}
		case *algebra.Base:
			// Attributes stored encrypted at rest (deterministic).
			for a := range x.EncSet().All() {
				schemes[a] = algebra.SchemeDeterministic
				keyIDs[a] = x.StorageKey
			}
		}
	})
	profiles := profile.ForPlan(root)
	cache := make(ConstCache)
	var firstErr error

	algebra.PostOrder(root, func(n algebra.Node) {
		if firstErr != nil {
			return
		}
		var pred algebra.Pred
		switch x := n.(type) {
		case *algebra.Select:
			pred = x.Pred
		case *algebra.Join:
			pred = x.Cond
		default:
			return
		}
		encrypted := algebra.NewAttrSet()
		for _, c := range n.Children() {
			encrypted = encrypted.Union(profiles[c].VE)
		}
		algebra.WalkPred(pred, func(q algebra.Pred) {
			if firstErr != nil {
				return
			}
			av, ok := q.(*algebra.CmpAV)
			if !ok || !encrypted.Has(av.A) {
				return
			}
			scheme, keyID := schemes[av.A], keyIDs[av.A]
			if keyID == "" {
				firstErr = fmt.Errorf("exec: no key recorded for encrypted attribute %s", av.A)
				return
			}
			ring, err := keys.Get(keyID)
			if err != nil {
				firstErr = fmt.Errorf("exec: dispatching constant for %s: %w", av.A, err)
				return
			}
			v := coerceLiteral(av.V, kinds[av.A])
			cv, err := EncryptValue(ring, scheme, v)
			if err != nil {
				firstErr = fmt.Errorf("exec: encrypting constant for %s: %w", av.A, err)
				return
			}
			cache[av] = cv
		})
	})
	return cache, firstErr
}

// coerceLiteral converts a SQL literal to the kind of the stored column, so
// deterministic encodings match.
func coerceLiteral(v sql.Value, kind Kind) Value {
	if v.IsString {
		return String(v.Str)
	}
	if kind == KInt {
		return Int(int64(math.Round(v.Num)))
	}
	return Float(v.Num)
}

// DisplayString renders a value row as tab-separated text (for CLI output).
func DisplayString(row []Value) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = v.String()
	}
	return strings.Join(parts, "\t")
}
