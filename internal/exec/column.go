package exec

import (
	"slices"

	"mpq/internal/algebra"
)

// ColKind is the physical layout of one batch column.
type ColKind uint8

// Column layouts. The typed layouts (ColInt, ColFloat, ColStr) carry
// plaintext cells in monomorphic vectors with an optional null bitmap;
// ColCipherBytes carries the ciphertext payloads of a column whose cells all
// share one symmetric scheme and key (deterministic, randomized, or OPE), so
// predicate evaluation and batch decryption run over [][]byte without
// materializing a Cipher per cell. ColDict is a dictionary-encoded string
// column (per-cell uint32 codes into a deduplicated shared dictionary);
// ColCipherDict is its encrypted twin, whose dictionary holds one ciphertext
// per distinct plaintext. ColAny is the generic fallback: a []Value vector
// for mixed-kind columns, Paillier ciphertexts, and anything else.
const (
	ColAny ColKind = iota
	ColInt
	ColFloat
	ColStr
	ColCipherBytes
	ColDict
	ColCipherDict
)

// Column is one attribute's cells across a batch, stored column-major. The
// vector matching Kind is populated; the others are nil. Columns are
// immutable once published in a Batch: operators that rewrite cells
// (encryption, decryption) build replacement columns, so upstream columns
// may be shared across operators and batches with zero copies.
type Column struct {
	Kind ColKind

	Ints   []int64   // ColInt
	Floats []float64 // ColFloat
	Strs   []string  // ColStr

	// ColCipherBytes: the per-cell ciphertext payloads plus the scheme, key
	// id, and per-cell plaintext kinds shared metadata, exactly the fields a
	// Cipher would carry minus the per-cell allocation.
	Bytes  [][]byte
	Scheme algebra.Scheme
	KeyID  string
	Plains []Kind

	// ColDict / ColCipherDict: per-cell codes into a shared, deduplicated
	// dictionary. Codes is private to the column; Dict (plaintext entries)
	// and CipherDict (one ciphertext per distinct plaintext, with the shared
	// Scheme/KeyID above; every entry's plaintext kind is KString) are
	// immutable once published and shared across slices, gathers, batches,
	// and concurrent queries. NULL cells carry dictNullCode in their slot.
	Codes      []uint32
	Dict       []string
	CipherDict [][]byte

	Vals []Value // ColAny

	// Nulls is a bitmap over the typed layouts: bit i set means cell i is
	// NULL and the typed vector's slot i is undefined. nil means no NULLs.
	// ColAny columns hold NULL cells inline as Value{Kind: KNull} instead.
	Nulls []uint64
}

// Len returns the column's cell count.
func (c *Column) Len() int {
	switch c.Kind {
	case ColInt:
		return len(c.Ints)
	case ColFloat:
		return len(c.Floats)
	case ColStr:
		return len(c.Strs)
	case ColCipherBytes:
		return len(c.Bytes)
	case ColDict, ColCipherDict:
		return len(c.Codes)
	default:
		return len(c.Vals)
	}
}

// IsNull reports whether cell i is NULL.
func (c *Column) IsNull(i int) bool {
	if c.Kind == ColAny {
		return c.Vals[i].Kind == KNull
	}
	return bit(c.Nulls, i)
}

// bit reports whether a null bitmap marks cell i.
func bit(words []uint64, i int) bool {
	return words != nil && words[i>>6]&(1<<(uint(i)&63)) != 0
}

// anyBit reports whether a null bitmap marks any cell.
func anyBit(words []uint64) bool {
	return slices.ContainsFunc(words, func(w uint64) bool { return w != 0 })
}

// setNull marks cell i NULL, growing the bitmap on first use.
func (c *Column) setNull(i, n int) {
	if c.Nulls == nil {
		c.Nulls = make([]uint64, (n+63)/64)
	}
	c.Nulls[i>>6] |= 1 << (uint(i) & 63)
}

// hasNulls reports whether any cell is NULL (typed layouts only).
func (c *Column) hasNulls() bool { return anyBit(c.Nulls) }

// Value materializes cell i. For the typed layouts this is allocation-free;
// for ColCipherBytes it allocates one Cipher (boundary shims only — hot
// loops read the vectors directly).
func (c *Column) Value(i int) Value {
	if c.Kind != ColAny && c.IsNull(i) {
		return Null()
	}
	switch c.Kind {
	case ColInt:
		return Int(c.Ints[i])
	case ColFloat:
		return Float(c.Floats[i])
	case ColStr:
		return String(c.Strs[i])
	case ColCipherBytes:
		return Enc(&Cipher{Scheme: c.Scheme, KeyID: c.KeyID, Data: c.Bytes[i], Plain: c.Plains[i]})
	case ColDict:
		return String(c.Dict[c.Codes[i]])
	case ColCipherDict:
		return Enc(&Cipher{Scheme: c.Scheme, KeyID: c.KeyID, Data: c.CipherDict[c.Codes[i]], Plain: KString})
	default:
		return c.Vals[i]
	}
}

// AppendValues appends the column's cells to dst as materialized values.
func (c *Column) AppendValues(dst []Value) []Value {
	n := c.Len()
	for i := 0; i < n; i++ {
		dst = append(dst, c.Value(i))
	}
	return dst
}

// NewColumn builds the tightest column layout holding vals: a typed vector
// when every non-NULL cell shares one plaintext kind, a ciphertext-payload
// vector when every cell is a symmetric ciphertext under one scheme and key,
// and a generic []Value column otherwise. vals is never retained (the
// generic layout copies it), so callers may reuse the slice.
func NewColumn(vals []Value) Column {
	kind := detectColKind(vals)
	n := len(vals)
	col := Column{Kind: kind}
	switch kind {
	case ColInt:
		col.Ints = make([]int64, n)
		for i, v := range vals {
			if v.Kind == KNull {
				col.setNull(i, n)
				continue
			}
			col.Ints[i] = v.I
		}
	case ColFloat:
		col.Floats = make([]float64, n)
		for i, v := range vals {
			if v.Kind == KNull {
				col.setNull(i, n)
				continue
			}
			col.Floats[i] = v.F
		}
	case ColStr:
		col.Strs = make([]string, n)
		for i, v := range vals {
			if v.Kind == KNull {
				col.setNull(i, n)
				continue
			}
			col.Strs[i] = v.S
		}
	case ColCipherBytes:
		col.Bytes = make([][]byte, n)
		col.Plains = make([]Kind, n)
		col.Scheme = vals[0].C.Scheme
		col.KeyID = vals[0].C.KeyID
		for i, v := range vals {
			col.Bytes[i] = v.C.Data
			col.Plains[i] = v.C.Plain
		}
	default:
		col.Vals = append(make([]Value, 0, n), vals...)
	}
	return col
}

// detectColKind picks the layout for a cell vector: one pass, falling back
// to ColAny on the first cell that breaks the candidate layout.
func detectColKind(vals []Value) ColKind {
	kind := ColAny
	decided := false
	var first *Cipher
	for i := range vals {
		v := &vals[i]
		switch v.Kind {
		case KNull:
			// NULLs ride the typed bitmap but cannot appear in a cipher
			// column (a NULL cell is not a ciphertext).
			if kind == ColCipherBytes {
				return ColAny
			}
		case KInt:
			if !decided {
				kind, decided = ColInt, true
			} else if kind != ColInt {
				return ColAny
			}
		case KFloat:
			if !decided {
				kind, decided = ColFloat, true
			} else if kind != ColFloat {
				return ColAny
			}
		case KString:
			if !decided {
				kind, decided = ColStr, true
			} else if kind != ColStr {
				return ColAny
			}
		case KCipher:
			if v.C == nil || v.C.Data == nil {
				return ColAny // Paillier (group element, not bytes)
			}
			if !decided {
				kind, decided, first = ColCipherBytes, true, v.C
				// A cipher column cannot also carry earlier NULL cells.
				for j := 0; j < i; j++ {
					if vals[j].Kind == KNull {
						return ColAny
					}
				}
			} else if kind != ColCipherBytes {
				return ColAny
			}
			if v.C.Scheme != first.Scheme || v.C.KeyID != first.KeyID {
				return ColAny
			}
		default:
			return ColAny
		}
	}
	if !decided {
		// All NULL (or empty): a typed int column with a full bitmap would
		// work, but ColAny keeps the degenerate case simple.
		return ColAny
	}
	return kind
}

// slice returns the column's window [lo, hi) as a new column header sharing
// the receiver's cell storage: the zero-copy view scans serve.
// Only the null bitmap may need rebuilding — when lo is word-aligned the
// bitmap words are shared too, otherwise the window's bits are shifted into
// a fresh (hi-lo)-bit bitmap.
func (c *Column) slice(lo, hi int) Column {
	out := Column{Kind: c.Kind}
	switch c.Kind {
	case ColInt:
		out.Ints = c.Ints[lo:hi]
	case ColFloat:
		out.Floats = c.Floats[lo:hi]
	case ColStr:
		out.Strs = c.Strs[lo:hi]
	case ColCipherBytes:
		out.Bytes = c.Bytes[lo:hi]
		out.Plains = c.Plains[lo:hi]
		out.Scheme, out.KeyID = c.Scheme, c.KeyID
	case ColDict, ColCipherDict:
		out.Codes = c.Codes[lo:hi]
		out.Dict = c.Dict
		out.CipherDict = c.CipherDict
		out.Scheme, out.KeyID = c.Scheme, c.KeyID
	default:
		out.Vals = c.Vals[lo:hi]
	}
	if c.Nulls != nil {
		out.Nulls = sliceBitmap(c.Nulls, lo, hi)
	}
	return out
}

// sliceBitmap extracts bits [lo, hi) of a null bitmap. Word-aligned windows
// share the underlying words; unaligned ones are shifted into fresh storage.
func sliceBitmap(words []uint64, lo, hi int) []uint64 {
	n := hi - lo
	if n <= 0 {
		return nil
	}
	if lo&63 == 0 {
		return words[lo>>6 : (hi+63)>>6]
	}
	out := make([]uint64, (n+63)/64)
	s := uint(lo & 63)
	for i := range out {
		w := words[lo>>6+i] >> s
		if next := lo>>6 + i + 1; next < len(words) {
			w |= words[next] << (64 - s)
		}
		out[i] = w
	}
	return out
}

// gather returns a new column holding the cells of c at the selected
// indexes, in selection order: the typed counterpart of row copying after a
// filter.
func (c *Column) gather(sel []int32) Column {
	out := Column{Kind: c.Kind}
	n := len(sel)
	switch c.Kind {
	case ColInt:
		out.Ints = make([]int64, n)
		for o, i := range sel {
			out.Ints[o] = c.Ints[i]
		}
	case ColFloat:
		out.Floats = make([]float64, n)
		for o, i := range sel {
			out.Floats[o] = c.Floats[i]
		}
	case ColStr:
		out.Strs = make([]string, n)
		for o, i := range sel {
			out.Strs[o] = c.Strs[i]
		}
	case ColCipherBytes:
		out.Bytes = make([][]byte, n)
		out.Plains = make([]Kind, n)
		out.Scheme, out.KeyID = c.Scheme, c.KeyID
		for o, i := range sel {
			out.Bytes[o] = c.Bytes[i]
			out.Plains[o] = c.Plains[i]
		}
	case ColDict, ColCipherDict:
		out.Codes = make([]uint32, n)
		out.Dict = c.Dict
		out.CipherDict = c.CipherDict
		out.Scheme, out.KeyID = c.Scheme, c.KeyID
		for o, i := range sel {
			out.Codes[o] = c.Codes[i]
		}
	default:
		out.Vals = make([]Value, n)
		for o, i := range sel {
			out.Vals[o] = c.Vals[i]
		}
	}
	if c.Nulls != nil {
		for o, i := range sel {
			if c.IsNull(int(i)) {
				out.setNull(o, n)
			}
		}
	}
	return out
}

// strCell returns cell i of a ColStr or ColDict column.
func strCell(c *Column, i int) string {
	if c.Kind == ColDict {
		return c.Dict[c.Codes[i]]
	}
	return c.Strs[i]
}

// cipherCell returns cell i of a ColCipherBytes or ColCipherDict column.
func cipherCell(c *Column, i int) []byte {
	if c.Kind == ColCipherDict {
		return c.CipherDict[c.Codes[i]]
	}
	return c.Bytes[i]
}
