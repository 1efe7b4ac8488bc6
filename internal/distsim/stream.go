package distsim

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mpq/internal/algebra"
	"mpq/internal/authz"
	"mpq/internal/core"
	"mpq/internal/dispatch"
	"mpq/internal/exec"
	"mpq/internal/exec/pipeline"
	"mpq/internal/obs"
)

// The runtime is a fully pipelined exchange: each fragment compiles its
// subtree into a batch operator stream whose frontier inputs are
// channel-fed pipeline sources, and ships every produced batch to its
// consumer as soon as it exists. A
// provider can therefore start probing a join while the other side's scan
// is still running, and wide-area transfer latency overlaps upstream
// computation batch by batch (RTT is paid once per edge, serialization per
// batch). The ledger still carries exactly one Transfer per cross-subject
// plan edge — the multiset distributed accounting tests check — with the
// per-batch bytes summed and the batch count recorded.

// streamBuffer is the per-edge channel depth: enough batches in flight to
// overlap transfer and computation without unbounded buffering.
const streamBuffer = 4

// errStreamAborted stops a producer's pump when the run's done channel
// closed while it was blocked handing a batch over.
var errStreamAborted = fmt.Errorf("distsim: stream aborted")

// ExecuteStreamCtx runs the extended plan across the network with one
// worker goroutine per fragment of dispatch.Partition(ext) — the Figure 8
// requests — exchanging row batches over channels.
// Every batch of the root fragment's output is handed to sink in production
// order; the returned schema describes those rows. The transfers of this
// run (one per cross-subject edge, bytes accounted per batch) are returned
// and appended to the network ledger. The network is not otherwise mutated,
// so concurrent calls on one prepared network are safe.
//
// Cancellation (or deadline expiry) of ctx aborts the run within one batch
// of work: a watcher closes the run's done channel, unblocking every
// exchange send and receive, while each fragment executor probes the
// context at its own batch boundaries. A panic on any fragment goroutine is
// caught at the fragment boundary and surfaces as that fragment's
// *exec.PanicError instead of killing the process. A nil context (or one
// that can never be cancelled) costs nothing.
func (nw *Network) ExecuteStreamCtx(ctx context.Context, ext *core.ExtendedPlan, consts exec.ConstCache, sink func(rows [][]exec.Value) error) ([]algebra.Attr, []Transfer, error) {
	runCtx := ctx
	if ctx != nil && ctx.Done() == nil {
		runCtx = nil // context.Background etc: keep the zero-cost path
	}
	var faultOps *exec.FaultPoints
	if nw.Faults != nil {
		faultOps = nw.Faults.Ops
	}
	d := dispatch.Partition(ext)
	frags := d.Fragments
	// Each non-root fragment feeds exactly one consumer (the plan is a
	// tree) over outCh[f.Index].
	outCh := make([]chan pipeline.Msg, len(frags))
	for i := range frags {
		outCh[i] = make(chan pipeline.Msg, streamBuffer)
	}

	// Resolve subject executors up front, before any worker starts, so
	// goroutines never touch the subject map. One memory accountant spans
	// the whole run: every fragment's reservations draw on the same
	// per-query budget, exactly as they would on one overloaded host.
	runMem := nw.runMem()
	clones := make([]*exec.Executor, len(frags))
	for i, f := range frags {
		c := nw.Subject(f.Subject).Clone()
		for name, fn := range nw.UDFs {
			c.UDFs[name] = fn
		}
		c.Consts = consts
		c.BatchSize = nw.BatchSize
		c.CryptoWorkers = nw.CryptoWorkers
		c.Trace = nw.Trace
		c.Mem = runMem
		c.Ctx = runCtx
		c.Faults = faultOps
		c.Sources = make(map[algebra.Node]exec.Operator, len(f.Inputs))
		clones[i] = c
	}

	var (
		run        []Transfer
		runMu      sync.Mutex
		wg         sync.WaitGroup
		errMu      sync.Mutex
		firstErr   error
		rootSchema []algebra.Attr
	)
	done := make(chan struct{})
	var closeOnce sync.Once
	abort := func() { closeOnce.Do(func() { close(done) }) }
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		abort()
	}

	// The watcher turns a context cancellation into a run abort: closing
	// done unblocks every exchange send and receive, so even fragments
	// stalled on a full or empty channel stop within one batch.
	finished := make(chan struct{})
	watchDone := make(chan struct{})
	if runCtx != nil {
		go func() {
			defer close(watchDone)
			select {
			case <-runCtx.Done():
				fail(context.Cause(runCtx))
			case <-finished:
			}
		}()
	}

	for i, f := range frags {
		wg.Add(1)
		go func(i int, f *dispatch.Fragment, ex *exec.Executor) {
			defer wg.Done()
			defer close(outCh[i])
			isRoot := f == d.Root
			// The edge leaving this fragment: the consumer's subject and
			// operation (for the ledger) and, when core.MarkPartials marked
			// it, a pre-shuffle partial aggregation. The producer then
			// evaluates the consumer's selection chain, folds the
			// group-by's aggregates per group and ships one partial row per
			// group; the consumer splices the shuffle in at the group-by's
			// child and merges the partials.
			var to authz.Subject
			var consumerOp string
			var partial *core.PartialEdge
			if !isRoot {
				to, consumerOp = ext.Assign.Executor(f.Consumer), f.Consumer.Op()
				if pe, ok := ext.Partials[f.Root]; ok {
					partial = &pe
				}
			}

			wrap := func(err error) error {
				return fmt.Errorf("distsim: %s at %s: %w", f.Root.Op(), f.Subject, err)
			}
			emitErr := func(err error) {
				fail(err)
				if !isRoot {
					select {
					case outCh[i] <- pipeline.Msg{Err: err}:
					case <-done:
					}
				}
			}
			// Fragment boundary: a panic anywhere in this fragment's build or
			// pump becomes its query error; sibling fragments unwind through
			// the done channel and the process survives. Registered after the
			// close(outCh) defer so the error message can still be forwarded.
			defer func() {
				if r := recover(); r != nil {
					emitErr(wrap(exec.NewPanicError(fmt.Sprintf("fragment %s", f.Root.Op()), r)))
				}
			}()
			edgeSpec, edgeArmed := nw.Faults.edgeSpec(f.Subject, to)
			var edgeFP *exec.FaultPoints
			var edgeWhere string
			if edgeArmed && !isRoot {
				edgeFP = nw.Faults.points()
				edgeWhere = "edge " + EdgeKey(f.Subject, to)
			} else {
				edgeArmed = false
			}

			for _, in := range f.Inputs {
				if pe, ok := ext.Partials[in.Root]; ok {
					// The producer evaluates the selection chain and ships
					// per-group partial aggregates for this edge, so the
					// source splices in directly under the group-by (the
					// filters already ran producer-side), carries the
					// partial wire schema, and the group-by compiles in
					// merge mode.
					if ex.Partials == nil {
						ex.Partials = make(map[*algebra.GroupBy]bool)
					}
					ex.Partials[pe.GroupBy] = true
					ex.Sources[pe.GroupBy.Child] = pipeline.NewSource(
						exec.ShufflePartialSchema(pe.GroupBy), outCh[in.Index], done)
					continue
				}
				ex.Sources[in.Root] = pipeline.NewSource(in.Root.Schema(), outCh[in.Index], done)
			}
			op, err := ex.Build(f.Root)
			if err != nil {
				emitErr(wrap(err))
				return
			}
			if partial != nil {
				// Apply the absorbed consumer selections innermost first,
				// then fold partials per group.
				for k := len(partial.Selects) - 1; k >= 0; k-- {
					op, err = exec.NewShuffleSelect(ex, partial.Selects[k], op)
					if err != nil {
						emitErr(wrap(err))
						return
					}
				}
				op, err = exec.NewShufflePartial(ex, partial.GroupBy, op)
				if err != nil {
					emitErr(wrap(err))
					return
				}
			}
			if isRoot {
				rootSchema = op.Schema()
			}

			var rows, batches int
			var bytes int64
			var waited time.Duration
			dl := newDictLedger() // this goroutine's edge: dictionaries ship once
			first := true
			var sinkErr error
			aborted := false
			pumpErr := pipeline.PumpContext(runCtx, op, func(b *exec.Batch) error {
				rows += b.N
				batches++
				if edgeArmed {
					if err := edgeSpec.Fire(edgeFP, edgeWhere, batches); err != nil {
						return err
					}
				}
				if isRoot {
					// The root's hand-off to the dispatching user is not a
					// simulated link and is not in the ledger: materialize
					// the columnar batch into rows at this API boundary
					// only.
					if err := sink(b.Rows()); err != nil {
						sinkErr = err
						return err
					}
					return nil
				}
				bb := batchBytes(b, dl)
				bytes += bb
				// The producer bears the outbound link latency of each
				// batch before handing it over: RTT once per edge, then
				// serialization time per batch, overlapping downstream
				// computation.
				if d := nw.Delay; d != nil {
					var dur time.Duration
					if d.BytesPerSec > 0 {
						dur = time.Duration(float64(bb) / d.BytesPerSec * float64(time.Second))
					}
					if first {
						dur += d.RTT
					}
					if dur > 0 {
						time.Sleep(dur)
						waited += dur
					}
				}
				first = false
				select {
				case outCh[i] <- pipeline.Msg{Batch: b}:
					return nil
				case <-done:
					aborted = true
					return errStreamAborted
				}
			})
			if pumpErr != nil {
				switch {
				case aborted:
					// The run is already failing; the origin reported it.
				case sinkErr != nil:
					fail(sinkErr)
				default:
					emitErr(wrap(pumpErr))
				}
				return
			}
			if !isRoot {
				t := Transfer{
					From: f.Subject, To: to,
					Rows: rows, Bytes: bytes, Batches: batches,
					Op: consumerOp,
				}
				nw.record(t)
				if nw.Trace != nil {
					nw.Trace.AddEdge(obs.Edge{
						From: string(f.Subject), To: string(to), Op: consumerOp,
						Rows: int64(rows), Bytes: bytes, Batches: int64(batches),
						WaitNanos: waited.Nanoseconds(),
					})
				}
				runMu.Lock()
				run = append(run, t)
				runMu.Unlock()
			}
		}(i, f, clones[i])
	}

	wg.Wait()
	close(finished)
	if runCtx != nil {
		<-watchDone
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	return rootSchema, run, nil
}
