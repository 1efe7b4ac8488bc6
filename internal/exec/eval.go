package exec

import (
	"fmt"
	"math"
	"strings"

	"mpq/internal/algebra"
	"mpq/internal/crypto"
	"mpq/internal/sql"
)

func aggKey(f sql.AggFunc, a algebra.Attr, star bool) string {
	if star {
		return "*" + string(f)
	}
	return string(f) + "|" + a.String()
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
// compared against an attribute the plan declares encrypted at that point,
// under its declared scheme and key, using the keys of the dispatching
// subject. It resolves each comparison with the resolver Build compiles it
// with, so it encrypts exactly the constants the executor reads: none for a
// count, which is plaintext whatever its operand's form. The resulting
// cache ships with the sub-queries so that providers can evaluate
// conditions over ciphertexts without holding keys.
func PrepareConstants(root algebra.Node, keys *crypto.KeyStore, kinds AttrKinds) (ConstCache, error) {
	cache := make(ConstCache)
	var firstErr error
	algebra.PostOrder(root, func(n algebra.Node) {
		var pred algebra.Pred
		var r *schemaResolver
		switch x := n.(type) {
		case *algebra.Select:
			pred, r = x.Pred, resolverFor(x.Child.Schema(), x.Child)
		case *algebra.Join:
			pred, r = x.Cond, plainResolver(x.Schema(), x.L, x.R)
		default:
			return
		}
		algebra.WalkPred(pred, func(q algebra.Pred) {
			av, ok := q.(*algebra.CmpAV)
			if !ok || firstErr != nil {
				return
			}
			_, scheme, keyID, err := r.colFor(av.A, av.Agg)
			if err != nil || scheme == plain {
				return // a reference outside the row fails Build instead
			}
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
