package exec

import (
	"errors"
	"fmt"
	"sync/atomic"
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

// groupCost estimates the resident footprint of one new group: map entry and
// key string, pinned key values, and one accumulator per aggregate.
func groupCost(hkLen, nkeys, naggs int) int64 {
	return int64(96 + 2*hkLen + nkeys*48 + naggs*112)
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
