package distsim

import (
	"context"

	"mpq/internal/algebra"
	"mpq/internal/authz"
	"mpq/internal/core"
	"mpq/internal/exec"
)

// Execution runs one worker goroutine per plan fragment: a fragment is the
// maximal connected subtree of the extended plan executed by a single
// subject (the same decomposition dispatch.Partition renders as Figure 8
// sub-queries). Workers exchange sub-results over channels, so independent
// subtrees — the two sides of a join assigned to different providers, the
// per-authority scans feeding a user-side aggregate — evaluate concurrently,
// while the operations inside one fragment form a chain on one subject's
// executor. Every cross-fragment shipment is recorded in the transfer
// ledger, in completion order.

// fragInput is one frontier edge of a fragment: the producing fragment,
// the plan node it evaluates, and the consuming operation (for the ledger).
type fragInput struct {
	from     *fragment
	node     algebra.Node
	consumer string // Op() of the node consuming the shipment
}

// fragment is the unit of parallel work: a maximal same-subject subtree.
type fragment struct {
	subject authz.Subject
	root    algebra.Node
	inputs  []fragInput
}

// partitionFragments splits the extended plan into maximal same-subject
// fragments, inputs before consumers (post-order over the fragment DAG).
func partitionFragments(ext *core.ExtendedPlan) []*fragment {
	executor := ext.Assign.Executor
	var frags []*fragment

	var build func(n algebra.Node) *fragment
	build = func(n algebra.Node) *fragment {
		f := &fragment{
			subject: executor(n),
			root:    n,
		}
		var walk func(m algebra.Node)
		walk = func(m algebra.Node) {
			for _, c := range m.Children() {
				if executor(c) == f.subject {
					walk(c)
				} else {
					f.inputs = append(f.inputs, fragInput{
						from: build(c), node: c, consumer: m.Op(),
					})
				}
			}
		}
		walk(n)
		frags = append(frags, f)
		return f
	}
	build(ext.Root)
	return frags
}

// ExecuteParallel runs the extended plan across the network with one
// goroutine per fragment (ExecuteStreamCtx) and collects the root's batches
// into one relation. It returns that relation and the transfers of this
// run; the same transfers are also appended to the network ledger. The
// network itself is not otherwise mutated, so concurrent ExecuteParallel
// calls on one prepared network are safe.
func (nw *Network) ExecuteParallel(ext *core.ExtendedPlan, consts exec.ConstCache) (*exec.Table, []Transfer, error) {
	return nw.ExecuteParallelCtx(nil, ext, consts)
}

// ExecuteParallelCtx is ExecuteParallel under a context, with
// ExecuteStreamCtx's batch-bounded cancellation and fragment-boundary panic
// isolation. A nil context behaves exactly like ExecuteParallel.
func (nw *Network) ExecuteParallelCtx(ctx context.Context, ext *core.ExtendedPlan, consts exec.ConstCache) (*exec.Table, []Transfer, error) {
	var rows [][]exec.Value
	schema, transfers, err := nw.ExecuteStreamCtx(ctx, ext, consts, func(b [][]exec.Value) error {
		rows = append(rows, b...)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := exec.NewTable(schema)
	t.Rows = rows
	return t, transfers, nil
}
