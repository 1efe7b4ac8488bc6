package distsim

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mpq/internal/algebra"
	"mpq/internal/authz"
	"mpq/internal/core"
	"mpq/internal/exec"
	"mpq/internal/obs"
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
	out     chan fragResult
}

type fragResult struct {
	table *exec.Table
	bytes int64
	err   error
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
			out:     make(chan fragResult, 1),
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
// goroutine per fragment. It returns the root relation and the transfers of
// this run; the same transfers are also appended to the network ledger. The
// network itself is not otherwise mutated, so concurrent ExecuteParallel
// calls on one prepared network are safe.
//
// Fragments exchange row batches over channels as they are produced
// (ExecuteStreamCtx); with Materializing set, each fragment ships its complete
// sub-result in one piece — the reference the equivalence tests compare
// against.
func (nw *Network) ExecuteParallel(ext *core.ExtendedPlan, consts exec.ConstCache) (*exec.Table, []Transfer, error) {
	return nw.ExecuteParallelCtx(nil, ext, consts)
}

// ExecuteParallelCtx is ExecuteParallel under a context: the streaming
// default inherits ExecuteStreamCtx's batch-bounded cancellation and
// fragment-boundary panic isolation; the materializing reference probes the
// context between plan nodes and catches fragment panics as that
// fragment's error. A nil context behaves exactly like ExecuteParallel.
func (nw *Network) ExecuteParallelCtx(ctx context.Context, ext *core.ExtendedPlan, consts exec.ConstCache) (*exec.Table, []Transfer, error) {
	if nw.Materializing {
		return nw.executeParallelMaterializing(ctx, ext, consts)
	}
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

func (nw *Network) executeParallelMaterializing(ctx context.Context, ext *core.ExtendedPlan, consts exec.ConstCache) (*exec.Table, []Transfer, error) {
	frags := partitionFragments(ext)
	runCtx := ctx
	if ctx != nil && ctx.Done() == nil {
		runCtx = nil // context.Background etc: keep the zero-cost path
	}

	// Resolve subject executors up front, before any worker starts, so
	// goroutines never touch the subject map. Clones carry private UDF
	// registries; network-wide UDFs are merged into each.
	clones := make([]*exec.Executor, len(frags))
	for i, f := range frags {
		c := nw.Subject(f.subject).Clone()
		for name, fn := range nw.UDFs {
			c.UDFs[name] = fn
		}
		c.Consts = consts
		c.Materializing = true
		c.BatchSize = nw.BatchSize
		c.Trace = nw.Trace
		c.Ctx = runCtx
		clones[i] = c
	}

	var (
		run   []Transfer
		runMu sync.Mutex
		wg    sync.WaitGroup
	)
	root := frags[len(frags)-1] // build appends the root fragment last
	for i, f := range frags {
		wg.Add(1)
		go func(f *fragment, ex *exec.Executor) {
			defer wg.Done()
			// Fragment boundary: a panic becomes this fragment's error
			// result, so blocked consumers always receive something and the
			// process survives.
			defer func() {
				if r := recover(); r != nil {
					f.out <- fragResult{err: fmt.Errorf("distsim: %s at %s: %w",
						f.root.Op(), f.subject, exec.NewPanicError("fragment", r))}
				}
			}()
			for _, in := range f.inputs {
				r := <-in.from.out
				if r.err != nil {
					f.out <- fragResult{err: r.err}
					return
				}
				t := Transfer{
					From: in.from.subject, To: f.subject,
					Rows: r.table.Len(), Bytes: r.bytes,
					Op: in.consumer,
				}
				nw.record(t)
				if nw.Trace != nil {
					nw.Trace.AddEdge(obs.Edge{
						From: string(in.from.subject), To: string(f.subject), Op: in.consumer,
						Rows: int64(t.Rows), Bytes: t.Bytes, Batches: 1,
						WaitNanos: nw.Delay.delayFor(t.Bytes).Nanoseconds(),
					})
				}
				runMu.Lock()
				run = append(run, t)
				runMu.Unlock()
				ex.Materialized[in.node] = r.table
			}
			out, err := ex.Run(f.root)
			if err != nil {
				f.out <- fragResult{err: fmt.Errorf("distsim: %s at %s: %w", f.root.Op(), f.subject, err)}
				return
			}
			bytes := tableBytes(out)
			// The producer bears its outbound link latency before handing
			// the sub-result over, so transfers on independent subtrees
			// overlap each other and downstream computation (the root's
			// hand-off to the dispatching user is not a simulated link).
			if f != root {
				if d := nw.Delay.delayFor(bytes); d > 0 {
					time.Sleep(d)
				}
			}
			f.out <- fragResult{table: out, bytes: bytes}
		}(f, clones[i])
	}

	res := <-root.out
	wg.Wait()
	if res.err != nil {
		return nil, nil, res.err
	}
	return res.table, run, nil
}
