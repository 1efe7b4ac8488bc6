package distsim

import (
	"mpq/internal/core"
	"mpq/internal/dispatch"
	"mpq/internal/exec"
)

// Execution runs one worker goroutine per fragment of
// dispatch.Partition(ext): a fragment is the maximal connected subtree of
// the extended plan executed by a single subject, and it is the request
// Figure 8 renders for that subject. Workers exchange sub-results over
// channels, so independent subtrees — the two sides of a join assigned to
// different providers, the per-authority scans feeding a user-side
// aggregate — evaluate concurrently, while the operations inside one
// fragment form a chain on one subject's executor. Every cross-fragment
// shipment is recorded in the transfer ledger, in completion order.

// ExecuteParallel partitions the extended plan and runs it across the
// network with one goroutine per fragment (ExecuteStreamCtx, without a
// context), collecting the root's batches into one relation. It returns that relation and the
// transfers of this run; the same transfers are also appended to the
// network ledger. The network itself is not otherwise mutated, so
// concurrent ExecuteParallel calls on one prepared network are safe.
func (nw *Network) ExecuteParallel(ext *core.ExtendedPlan, consts exec.ConstCache) (*exec.Table, []Transfer, error) {
	var rows [][]exec.Value
	schema, transfers, err := nw.ExecuteStreamCtx(nil, dispatch.Partition(ext), consts, func(b *exec.Batch) error {
		rows = append(rows, b.Rows()...)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := exec.NewTable(schema)
	t.Rows = rows
	return t, transfers, nil
}
