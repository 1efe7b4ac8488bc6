package engine

import (
	"context"
	"time"

	"mpq/internal/exec"
	"mpq/internal/exec/pipeline"
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
// drained, sorted, and then replayed to yield in batches, so the first row
// arrives only after execution completes. The same holds under the
// Materializing reference, which has no streaming interior. A yield error
// aborts the run and is returned.
func (e *Engine) QueryStream(query string, yield func(headers []string, rows [][]exec.Value) error) (*Response, error) {
	return e.QueryStreamCtx(nil, query, yield)
}

// QueryStreamCtx is QueryStream under a caller context: cancellation or
// deadline expiry aborts the run within one batch of work, the engine's
// Config.QueryTimeout applies when ctx has no deadline, and admission
// control may reject the query before any work is done (see QueryCtx).
func (e *Engine) QueryStreamCtx(ctx context.Context, query string, yield func(headers []string, rows [][]exec.Value) error) (_ *Response, err error) {
	e.met.queries.Inc()
	ctx, cancel := e.runContext(ctx)
	if cancel != nil {
		defer cancel()
	}
	if err := e.acquireSlot(ctx); err != nil {
		e.countFailure(err)
		return nil, err
	}
	defer e.releaseSlot()
	// Engine-boundary panic isolation, as in Engine.query.
	defer func() {
		if r := recover(); r != nil {
			err = exec.NewPanicError("engine query", r)
			e.countFailure(err)
		}
	}()
	start := time.Now()
	pq, hit, err := e.admitSQL(query)
	if err != nil {
		e.met.errors.Inc()
		return nil, err
	}
	if hit {
		e.met.hits.Inc()
	} else {
		e.met.misses.Inc()
	}
	planTime := time.Since(start)

	batch := e.cfg.BatchSize
	if batch <= 0 {
		batch = exec.DefaultBatchSize
	}
	resp := &Response{
		CacheHit:     hit,
		AuthzVersion: pq.version,
		Executors:    pq.executors,
		Cost:         pq.result.Cost,
		PlanTime:     planTime,
	}
	for _, oc := range pq.plan.Output {
		resp.Headers = append(resp.Headers, oc.Name)
	}

	execStart := time.Now()
	emit := func(rows [][]exec.Value) error {
		if len(rows) == 0 {
			return nil
		}
		if resp.TimeToFirstRow == 0 {
			resp.TimeToFirstRow = time.Since(execStart)
		}
		resp.Rows += len(rows)
		return yield(resp.Headers, rows)
	}

	run := pq.network.Clone()
	if e.cfg.Materializing {
		// No streaming interior: execute, finalize, replay in batches.
		var table *exec.Table
		table, resp.Transfers, err = run.ExecuteParallelCtx(ctx, pq.result.Extended, pq.consts)
		if err == nil {
			table, _, err = e.finalize(pq, table)
		}
		if err != nil {
			e.countFailure(err)
			return nil, err
		}
		for pos := 0; pos < len(table.Rows); pos += batch {
			end := min(pos+batch, len(table.Rows))
			if err := emit(table.Rows[pos:end]); err != nil {
				e.met.errors.Inc()
				return nil, err
			}
		}
		return e.sealStream(resp, execStart), nil
	}

	fin := exec.NewExecutor()
	fin.Keys = pq.keys
	fin.CryptoWorkers = e.cfg.CryptoWorkers
	fin.ValueCrypto = e.cfg.ValueCrypto
	indices := make([]int, len(pq.plan.Output))
	for i, oc := range pq.plan.Output {
		indices[i] = oc.Index
	}
	limit := pq.plan.Limit
	streaming := len(pq.plan.OrderBy) == 0

	// ORDER BY + LIMIT — the top-k shape (TPC-H Q2/Q3/Q10) — keeps a
	// bounded heap instead of draining and sorting the full result: memory
	// stays O(limit) and the final sort touches only the retained rows.
	var topk *exec.TopK
	if !streaming && limit >= 0 {
		specs := make([]exec.SortSpec, len(pq.plan.OrderBy))
		for i, o := range pq.plan.OrderBy {
			specs[i] = exec.SortSpec{Index: o.Index, Desc: o.Desc}
		}
		topk = exec.NewTopK(specs, limit)
	}

	var drained [][]exec.Value // only when an unbounded sort blocks streaming
	emitted := 0
	sink := func(rows [][]exec.Value) error {
		dec, err := pipeline.DecryptRows(fin, rows)
		if err != nil {
			return err
		}
		if topk != nil {
			for _, row := range dec {
				if err := topk.Add(row); err != nil {
					return err
				}
			}
			return nil
		}
		if !streaming {
			drained = append(drained, dec...)
			return nil
		}
		if limit >= 0 && emitted >= limit {
			return nil // drain the remainder without emitting
		}
		out := make([][]exec.Value, 0, len(dec))
		for _, row := range dec {
			if limit >= 0 && emitted+len(out) >= limit {
				break
			}
			pr := make([]exec.Value, len(indices))
			for j, ix := range indices {
				pr[j] = row[ix]
			}
			out = append(out, pr)
		}
		emitted += len(out)
		return emit(out)
	}

	schema, transfers, err := run.ExecuteStreamCtx(ctx, pq.result.Extended, pq.consts, sink)
	if err != nil {
		e.countFailure(err)
		return nil, err
	}
	resp.Transfers = transfers

	if !streaming {
		var sorted [][]exec.Value
		if topk != nil {
			sorted, err = topk.Rows()
			if err != nil {
				e.met.errors.Inc()
				return nil, err
			}
		} else {
			t := exec.NewTable(schema)
			t.Rows = drained
			specs := make([]exec.SortSpec, len(pq.plan.OrderBy))
			for i, o := range pq.plan.OrderBy {
				specs[i] = exec.SortSpec{Index: o.Index, Desc: o.Desc}
			}
			if err := t.SortBy(specs); err != nil {
				e.met.errors.Inc()
				return nil, err
			}
			sorted = t.Rows // limit < 0 here: bounded queries took the TopK path
		}
		out := make([][]exec.Value, len(sorted))
		for ri, row := range sorted {
			pr := make([]exec.Value, len(indices))
			for j, ix := range indices {
				pr[j] = row[ix]
			}
			out[ri] = pr
		}
		for pos := 0; pos < len(out); pos += batch {
			end := min(pos+batch, len(out))
			if err := emit(out[pos:end]); err != nil {
				e.met.errors.Inc()
				return nil, err
			}
		}
	}
	return e.sealStream(resp, execStart), nil
}

// admitSQL parses a query and admits its authorized plan for QueryStreamCtx
// (Engine.query parses and admits inline).
func (e *Engine) admitSQL(query string) (*preparedQuery, bool, error) {
	start := time.Now()
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, false, err
	}
	e.met.observe(e.met.phaseParse, start)
	return e.admit(stmt, fingerprint(stmt))
}

// sealStream stamps the execution counters onto a completed streaming
// response.
func (e *Engine) sealStream(resp *Response, execStart time.Time) *Response {
	resp.ExecTime = time.Since(execStart)
	e.met.observe(e.met.phaseExecute, execStart)
	e.met.transfers.Add(uint64(len(resp.Transfers)))
	e.met.bytesShipped.Add(uint64(resp.BytesShipped()))
	return resp
}
