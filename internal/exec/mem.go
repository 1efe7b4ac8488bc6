package exec

import (
	"errors"
	"fmt"
	"sync/atomic"
	"unsafe"

	"mpq/internal/sql"
)

// ErrMemoryBudget is the error a query fails with when a hash-join build
// side or a group-by table needs more memory than the query's budget has
// left. Match it with errors.Is: the error wraps it and names the operator
// and the bytes, and the distributed runtime adds the subject whose
// fragment ran the operator.
var ErrMemoryBudget = errors.New("exec: memory budget exceeded")

// MemAccountant tracks the memory reservations of one query run against a
// fixed budget. The budget caps hash-join build sides and group-by tables,
// and a query that needs more fails with ErrMemoryBudget. One accountant is
// shared by every fragment executor of a run, so the budget caps the query
// as a whole rather than per operator.
type MemAccountant struct {
	budget int64
	used   atomic.Int64
}

// NewMemAccountant returns an accountant enforcing budget bytes. A zero or
// negative budget means unlimited: every reservation is granted.
func NewMemAccountant(budget int64) *MemAccountant {
	return &MemAccountant{budget: budget}
}

// opNamer renders the plan operator a reservation is made for: algebra
// nodes and PartialSpan.
type opNamer interface{ Op() string }

// reserve reserves n bytes for operator op, or refuses with an error that
// wraps ErrMemoryBudget when they do not fit under the budget. A nil
// accountant or an unlimited budget always grants. The caller owns a granted
// reservation until it calls Release.
func (m *MemAccountant) reserve(op opNamer, n int64) error {
	if m == nil || m.budget <= 0 {
		return nil
	}
	for {
		cur := m.used.Load()
		if cur+n > m.budget {
			return fmt.Errorf("%w: %s needs %d more bytes with %d of %d reserved",
				ErrMemoryBudget, op.Op(), n, cur, m.budget)
		}
		if m.used.CompareAndSwap(cur, cur+n) {
			return nil
		}
	}
}

// Release returns n previously reserved bytes to the budget.
func (m *MemAccountant) Release(n int64) {
	if m == nil || m.budget <= 0 {
		return
	}
	m.used.Add(-n)
}

// Used returns the bytes currently reserved.
func (m *MemAccountant) Used() int64 {
	if m == nil {
		return 0
	}
	return m.used.Load()
}

// keyCellBytes is a key vector's cell size by layout. String and
// ciphertext cells share their bytes with the input.
var keyCellBytes = [...]int64{ColAny: int64(unsafe.Sizeof(Value{})), ColInt: 8, ColFloat: 8, ColStr: 16, ColCipherBytes: 24 + 1}

// groupCost is what one new group adds to a groupTable: its chain link, its
// hash and up to four bucket heads (keyTable.add keeps at least two buckets
// per entry), one cell per key vector, and per aggregate its count and the
// cells its function keeps. The limbs of Paillier sums are not counted.
func groupCost(keys []keyVec, aggs []aggVec) int64 {
	cost := int64(4 + 8 + 16)
	for k := range keys {
		cost += keyCellBytes[keys[k].Kind]
	}
	for i := range aggs {
		a := &aggs[i]
		cost += 8 // its count
		switch {
		case a.phe != nil:
			cost += 8 + 2*8
		case a.fn == sql.AggSum || a.fn == sql.AggAvg:
			cost += 8
		case a.fn != sql.AggCount:
			cost += keyCellBytes[a.ext.Kind]
		}
	}
	return cost
}

// batchMemBytes estimates the resident footprint of a retained batch, per
// column layout. Dictionary payloads are charged per batch even though
// batches often share one dictionary, keeping the estimate conservative.
func batchMemBytes(b *Batch) int64 {
	var total int64
	for ci := range b.Cols {
		c := &b.Cols[ci]
		switch c.Kind {
		case ColInt, ColFloat:
			total += int64(8 * b.N)
		case ColStr:
			for _, s := range c.Strs {
				total += int64(16 + len(s))
			}
		case ColCipherBytes:
			for _, p := range c.Bytes {
				total += int64(25 + len(p))
			}
		case ColDict:
			total += int64(4 * b.N)
			for _, s := range c.Dict {
				total += int64(16 + len(s))
			}
		case ColCipherDict:
			total += int64(4 * b.N)
			for _, p := range c.CipherDict {
				total += int64(24 + len(p))
			}
		default:
			total += int64(48 * b.N)
			for i := range c.Vals {
				v := &c.Vals[i]
				if v.Kind == KString {
					total += int64(len(v.S))
				}
				if v.C != nil {
					total += int64(64 + len(v.C.Data))
				}
			}
		}
		total += int64(len(c.Nulls) * 8)
	}
	return total
}
