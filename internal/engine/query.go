package engine

import (
	"context"
	"time"

	"mpq/internal/algebra"
	"mpq/internal/exec"
	"mpq/internal/obs"
	"mpq/internal/sql"
)

// QueryStream plans, authorizes, and executes one SQL query like Query, but
// delivers the finalized result incrementally: yield is called with the
// output headers and successive batches of fully decrypted, projected
// output rows as the root fragment produces them, so a caller can start
// consuming the answer while providers are still computing. The
// returned Response carries the run's metadata — its Table is nil and
// TimeToFirstRow records when the first batch reached yield.
//
// Queries with an ORDER BY cannot stream past the sort: their rows are
// drained and sorted (or, under a LIMIT, kept in a bounded top-k heap), and
// the result reaches yield in one piece once execution completes. A yield
// error aborts the run and is returned.
func (e *Engine) QueryStream(query string, yield func(headers []string, rows [][]exec.Value) error) (*Response, error) {
	return e.QueryStreamCtx(nil, query, yield)
}

// QueryStreamCtx is QueryStream under a caller context: cancellation or
// deadline expiry aborts the run within one batch of work, the engine's
// Config.QueryTimeout applies when ctx has no deadline, and admission
// control may reject the query before any work is done (see QueryCtx).
func (e *Engine) QueryStreamCtx(ctx context.Context, query string, yield func(headers []string, rows [][]exec.Value) error) (*Response, error) {
	resp, _, err := e.run(ctx, query, nil, yield)
	return resp, err
}

// run is the one body of every query entry point: admission, the default
// deadline, panic isolation, parse, plan admission, execution, user-side
// finalization and metrics. When tr is non-nil the run executes traced
// (every compiled operator wrapped in a span, every cross-subject edge
// recorded). Finalized rows go to yield; a nil yield collects them into
// Response.Table instead, as Query, QueryTraced and Explain want.
func (e *Engine) run(ctx context.Context, query string, tr *obs.Trace, yield func(headers []string, rows [][]exec.Value) error) (_ *Response, _ *preparedQuery, err error) {
	e.met.queries.Inc()
	ctx, cancel := e.runContext(ctx)
	if cancel != nil {
		defer cancel()
	}
	if err := e.acquireSlot(ctx); err != nil {
		e.countFailure(err)
		return nil, nil, err
	}
	defer e.releaseSlot()
	// Last-resort panic isolation: execution-layer panics are caught at the
	// fragment boundary, so this boundary covers the engine's own phases
	// (parse, admission, finalization after the run). The process serves
	// the next query either way.
	defer func() {
		if r := recover(); r != nil {
			err = exec.NewPanicError("engine query", r)
			e.countFailure(err)
		}
	}()
	start := time.Now()
	stmt, err := sql.Parse(query)
	if err != nil {
		e.met.errors.Inc()
		return nil, nil, err
	}
	e.met.observe(e.met.phaseParse, start)
	pq, hit, err := e.admit(stmt, fingerprint(stmt))
	if err != nil {
		e.met.errors.Inc()
		return nil, nil, err
	}
	if hit {
		e.met.hits.Inc()
	} else {
		e.met.misses.Inc()
	}
	resp := &Response{
		CacheHit:     hit,
		AuthzVersion: pq.version,
		Executors:    pq.executors,
		Cost:         pq.result.Cost,
		PlanTime:     time.Since(start),
	}
	for _, oc := range pq.plan.Output {
		resp.Headers = append(resp.Headers, oc.Name)
	}
	if yield == nil {
		resp.Table = &exec.Table{}
		yield = func(_ []string, rows [][]exec.Value) error {
			resp.Table.Rows = append(resp.Table.Rows, rows...)
			return nil
		}
	}

	execStart := time.Now()
	fin := e.newFinalizer(pq, func(rows [][]exec.Value) error {
		if resp.TimeToFirstRow == 0 {
			resp.TimeToFirstRow = time.Since(execStart)
		}
		resp.Rows += len(rows)
		return yield(resp.Headers, rows)
	})
	nw := pq.network.Clone()
	nw.Trace = tr
	schema, transfers, err := nw.ExecuteStreamCtx(ctx, pq.result.Extended, pq.consts, fin.add)
	resp.Transfers = transfers
	if err == nil {
		err = fin.flush()
	}
	if err != nil {
		e.countFailure(err)
		return nil, nil, err
	}
	if resp.Table != nil {
		resp.Table.Schema = fin.project(schema)
	}
	resp.ExecTime = time.Since(execStart)
	e.met.phaseExecute.Observe((resp.ExecTime - fin.spent).Seconds())
	e.met.phaseFinalize.Observe(fin.spent.Seconds())
	e.met.transfers.Add(uint64(len(resp.Transfers)))
	e.met.bytesShipped.Add(uint64(resp.BytesShipped()))
	return resp, pq, nil
}

// finalizer is the user-side completion of a run (Section 6): the user
// decrypts the root fragment's result with the query-plan keys, then
// applies ordering, limit and projection. Without an ORDER BY every batch
// is emitted as soon as it is decrypted, and batches past a satisfied
// LIMIT are drained without decryption. ORDER BY with a LIMIT keeps a
// bounded top-k heap; ORDER BY alone drains and stably sorts.
type finalizer struct {
	dec     *exec.Executor
	out     []int // plan.Output indexes into the root schema
	specs   []exec.SortSpec
	limit   int            // -1 when absent
	topk    *exec.TopK     // ORDER BY + LIMIT
	drained [][]exec.Value // ORDER BY alone
	emitted int
	emit    func(rows [][]exec.Value) error
	spent   time.Duration // inside add and flush
}

func (e *Engine) newFinalizer(pq *preparedQuery, emit func(rows [][]exec.Value) error) *finalizer {
	f := &finalizer{dec: exec.NewExecutor(), limit: pq.plan.Limit, emit: emit}
	f.dec.Keys = pq.keys
	f.dec.CryptoWorkers = e.cfg.CryptoWorkers
	for _, oc := range pq.plan.Output {
		f.out = append(f.out, oc.Index)
	}
	for _, o := range pq.plan.OrderBy {
		f.specs = append(f.specs, exec.SortSpec{Index: o.Index, Desc: o.Desc})
	}
	if f.specs != nil && f.limit >= 0 {
		f.topk = exec.NewTopK(f.specs, f.limit)
	}
	return f
}

// add takes one batch of root rows, in production order.
func (f *finalizer) add(rows [][]exec.Value) error {
	if f.specs == nil && f.limit >= 0 {
		rows = rows[:min(len(rows), f.limit-f.emitted)] // the rest drains undecrypted
	}
	if len(rows) == 0 {
		return nil
	}
	start := time.Now()
	defer func() { f.spent += time.Since(start) }()
	dec, err := f.dec.DecryptRows(rows)
	switch {
	case err != nil:
		return err
	case f.topk != nil:
		for _, row := range dec {
			if err := f.topk.Add(row); err != nil {
				return err
			}
		}
		return nil
	case f.specs != nil:
		f.drained = append(f.drained, dec...)
		return nil
	}
	f.emitted += len(dec)
	return f.emitRows(dec)
}

// flush completes a sorted result once the root is exhausted.
func (f *finalizer) flush() error {
	if f.specs == nil {
		return nil
	}
	start := time.Now()
	defer func() { f.spent += time.Since(start) }()
	sorted := f.drained
	if f.topk != nil {
		var err error
		if sorted, err = f.topk.Rows(); err != nil {
			return err
		}
	} else if err := (&exec.Table{Rows: sorted}).SortBy(f.specs); err != nil {
		return err
	}
	return f.emitRows(sorted)
}

// emitRows projects decrypted root rows onto the output columns and hands
// them on; empty batches are not emitted.
func (f *finalizer) emitRows(rows [][]exec.Value) error {
	if len(rows) == 0 {
		return nil
	}
	out := make([][]exec.Value, len(rows))
	for i, row := range rows {
		pr := make([]exec.Value, len(f.out))
		for j, ix := range f.out {
			pr[j] = row[ix]
		}
		out[i] = pr
	}
	return f.emit(out)
}

// project is the output schema: the root schema projected by plan.Output.
func (f *finalizer) project(schema []algebra.Attr) []algebra.Attr {
	out := make([]algebra.Attr, len(f.out))
	for j, ix := range f.out {
		out[j] = schema[ix]
	}
	return out
}
