package exec

import (
	"sync/atomic"
)

// Dictionary-encoded string columns. A ColDict column stores one uint32 code
// per cell plus a deduplicated []string dictionary; equality predicates,
// group-by keys, hash-join probes, and deterministic encryption then work
// per distinct value instead of per row. The dictionary is immutable once
// the column is published: slices and gathers share it, concurrent queries
// read it, and distsim ships it once per edge.

// dictNullCode marks a NULL cell's code slot. The null bitmap stays the
// authoritative NULL signal (exactly as for the other typed layouts, whose
// slots are undefined at NULL positions); the out-of-range sentinel just
// makes an unguarded dictionary access fail fast instead of reading a wrong
// value.
const dictNullCode = ^uint32(0)

// DictPolicy decides when Table's columnar cache promotes a ColStr column to
// ColDict. A column is promoted when it has at least MinRows cells and its
// distinct count stays within MaxRatio of its cell count. MaxRatio <= 0
// disables promotion entirely.
type DictPolicy struct {
	MinRows  int
	MaxRatio float64
}

// defaultDictPolicy keeps promotion a clear win: tiny columns are not worth
// the build pass, and past half-distinct the code indirection stops paying.
var defaultDictPolicy = DictPolicy{MinRows: 64, MaxRatio: 0.5}

var dictPolicy atomic.Pointer[DictPolicy]

func init() {
	p := defaultDictPolicy
	dictPolicy.Store(&p)
}

// SetDictPolicy replaces the process-wide dictionary promotion policy and
// returns the previous one (benchmarks flip it per configuration and
// restore). It affects only columnar caches built after the call.
func SetDictPolicy(p DictPolicy) DictPolicy {
	old := *dictPolicy.Load()
	dictPolicy.Store(&p)
	return old
}

// CurrentDictPolicy returns the process-wide dictionary promotion policy.
func CurrentDictPolicy() DictPolicy {
	return *dictPolicy.Load()
}

// DictStats is a snapshot of the process-global dictionary counters: how
// many columns were promoted, the per-distinct-value crypto multiplier
// (entries encrypted/decrypted vs cells covered), and the wire bytes dict
// layouts shipped vs what the plain string layout would have cost.
type DictStats struct {
	ColumnsBuilt   uint64 // ColStr columns promoted to ColDict
	Cells          uint64 // cells covered by promoted columns
	Entries        uint64 // distinct dictionary entries across promotions
	EncEntries     uint64 // dictionary entries encrypted (once per distinct)
	EncCells       uint64 // cells those encryptions covered
	DecEntries     uint64 // dictionary entries decrypted
	DecCells       uint64 // cells those decryptions covered
	WireDictBytes  uint64 // bytes dict-layout columns actually shipped
	WirePlainBytes uint64 // bytes the plain layout would have shipped
}

type dictCounters struct {
	columnsBuilt, cells, entries  atomic.Uint64
	encEntries, encCells          atomic.Uint64
	decEntries, decCells          atomic.Uint64
	wireDictBytes, wirePlainBytes atomic.Uint64
}

var dictStats dictCounters

// ReadDictStats snapshots the process-global dictionary counters.
func ReadDictStats() DictStats {
	return DictStats{
		ColumnsBuilt:   dictStats.columnsBuilt.Load(),
		Cells:          dictStats.cells.Load(),
		Entries:        dictStats.entries.Load(),
		EncEntries:     dictStats.encEntries.Load(),
		EncCells:       dictStats.encCells.Load(),
		DecEntries:     dictStats.decEntries.Load(),
		DecCells:       dictStats.decCells.Load(),
		WireDictBytes:  dictStats.wireDictBytes.Load(),
		WirePlainBytes: dictStats.wirePlainBytes.Load(),
	}
}

// AddDictWireBytes records one shipped dict-layout column: the bytes the
// dict layout actually put on the wire and the bytes the equivalent plain
// string column would have cost. distsim calls it from its per-edge
// accounting.
func AddDictWireBytes(dictBytes, plainBytes uint64) {
	dictStats.wireDictBytes.Add(dictBytes)
	dictStats.wirePlainBytes.Add(plainBytes)
}

// DictID returns a stable identity for a dictionary: the address of its
// first entry. Two columns share an identity exactly when they share one
// dictionary (slices and gathers preserve it), which is what per-dictionary
// caches key on. Empty dictionaries have no identity.
func DictID(dict []string) *string {
	if len(dict) == 0 {
		return nil
	}
	return &dict[0]
}

// cipherDictID is DictID for cipher dictionaries.
func cipherDictID(dict [][]byte) *[]byte {
	if len(dict) == 0 {
		return nil
	}
	return &dict[0]
}

// maybeDictColumn promotes a freshly built ColStr column to ColDict when the
// current policy says the distinct ratio makes it a win, and returns the
// input column unchanged otherwise. The returned column shares the input's
// null bitmap; the codes vector and dictionary are freshly allocated and
// never written again.
func maybeDictColumn(c Column) Column {
	if c.Kind != ColStr {
		return c
	}
	p := CurrentDictPolicy()
	n := len(c.Strs)
	if p.MaxRatio <= 0 || n < p.MinRows || n == 0 {
		return c
	}
	limit := int(float64(n) * p.MaxRatio)
	if limit < 1 {
		limit = 1
	}
	codes := make([]uint32, n)
	idx := make(map[string]uint32, 16)
	var dict []string
	for i, s := range c.Strs {
		if c.IsNull(i) {
			codes[i] = dictNullCode
			continue
		}
		code, ok := idx[s]
		if !ok {
			if len(dict) >= limit {
				return c // too many distincts — codes would not pay
			}
			code = uint32(len(dict))
			idx[s] = code
			dict = append(dict, s)
		}
		codes[i] = code
	}
	if len(dict) == 0 {
		return c // all NULL (cannot happen for a detected ColStr, but cheap)
	}
	dictStats.columnsBuilt.Add(1)
	dictStats.cells.Add(uint64(n))
	dictStats.entries.Add(uint64(len(dict)))
	return Column{Kind: ColDict, Codes: codes, Dict: dict, Nulls: c.Nulls}
}
