package exec

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"mpq/internal/algebra"
	"mpq/internal/obs"
	"mpq/internal/sql"
)

// Morsel-driven parallelism. A fragment's pipeline segment that (1) is
// anchored at a base-table scan and (2) consists only of order-preserving
// per-row operators — filter, projection, UDF, encrypt, decrypt, hash-join
// probe — can be split into morsels: fixed row-ranges over the table's
// cached column vectors. A pool of Workers goroutines claims morsels
// dynamically, each running a private compiled copy of the operator chain
// over its claimed range, and the results merge deterministically in morsel
// order. Because every chain operator preserves row order and morsel
// boundaries depend only on MorselRows (never on Workers or timing), the
// merged output is row-for-row identical to single-threaded execution.
//
// Pipeline breakers split differently: a group-by above a parallelizable
// chain aggregates per-morsel partial tables on the pool and merges them in
// morsel order (gather-mode accumulators make float summation bit-identical
// to the sequential fold — see groupAcc); a hash join's build side is
// produced by its own — possibly parallel — subtree and merged into one
// shared read-only index before the probe workers start.

// DefaultMorselRows is the fixed morsel length when the executor does not
// override it: large enough to amortize per-morsel Open/Close, small enough
// to balance skewed filters across workers, and a multiple of 64 so null
// bitmaps slice without shifting.
const DefaultMorselRows = 4096

// morselRows returns the executor's configured morsel length.
func (e *Executor) morselRows() int {
	if e.MorselRows > 0 {
		return e.MorselRows
	}
	return DefaultMorselRows
}

// parWorkers returns the effective morsel worker count (1 = sequential).
func (e *Executor) parWorkers() int {
	if e.Workers > 1 {
		return e.Workers
	}
	return 1
}

// chainExecutor returns the executor worker chains run under: a shallow
// copy sharing all durable state with the intra-batch crypto pool disabled
// — morsel workers already saturate the cores, so nested crypto fan-out
// would only contend.
func (e *Executor) chainExecutor() *Executor {
	ce := *e
	ce.CryptoWorkers = -1
	return &ce
}

// chainStep instantiates one operator of a worker's private chain over the
// worker's child operator. All compiled state a step closes over (predicate
// closures, projection maps, key rings, join indexes) is immutable during
// execution, so steps are shared across workers while every instantiated
// operator keeps its own buffers and cursors.
type chainStep func(child Operator) Operator

// chainJoin carries one join of a chain: the compiled build side and the
// state built from it at run start, shared read-only by every worker. Hash
// joins (hashR >= 0) build one index; nested-loop joins and products
// (hashR < 0) drain the right side once into a shared row set.
type chainJoin struct {
	right Operator
	hashR int // right key column, or -1 for nested-loop/product
	idx   *joinIndex
	rows  [][]Value
}

// chain is a compiled morsel-parallelizable pipeline segment: the anchor
// table scan (table, projection) plus the operator steps stacked above it,
// bottom-up.
type chain struct {
	t            *Table
	project      []int // nil = identity
	anchorSchema []algebra.Attr
	steps        []chainStep
	joins        []*chainJoin
	schema       []algebra.Attr // the chain's output schema
	work         bool           // a step performs real per-row work
}

// planChain inspects the subtree rooted at n and compiles it into a chain
// when it is morsel-parallelizable: a stack of order-preserving per-row
// operators over a single base-table (or materialized-relation) scan.
// Returns ok=false — with no error — when the shape does not qualify, in
// which case the caller falls back to the sequential build.
func (e *Executor) planChain(n algebra.Node) (*chain, bool, error) {
	if _, ok := e.Sources[n]; ok {
		return nil, false, nil // exchange streams cannot be range-scanned
	}
	if t, ok := e.Materialized[n]; ok {
		return &chain{t: t, anchorSchema: t.Schema, schema: t.Schema}, true, nil
	}
	switch x := n.(type) {
	case *algebra.Base:
		t, ok := e.Tables[x.Name]
		if !ok {
			return nil, false, fmt.Errorf("exec: no table %q", x.Name)
		}
		indices := make([]int, len(x.Attrs))
		for i, a := range x.Attrs {
			ix := t.ColIndex(a)
			if ix < 0 {
				return nil, false, fmt.Errorf("exec: table %q has no column %s", x.Name, a)
			}
			indices[i] = ix
		}
		if identityProjection(indices, len(t.Schema)) {
			indices = nil
		}
		schema := t.Schema
		if indices != nil {
			schema = make([]algebra.Attr, len(indices))
			for i, ix := range indices {
				schema[i] = t.Schema[ix]
			}
		}
		return &chain{t: t, project: indices, anchorSchema: schema, schema: schema}, true, nil

	case *algebra.Select:
		c, ok, err := e.planChain(x.Child)
		if !ok || err != nil {
			return nil, false, err
		}
		pred, err := e.compileColPred(x.Pred, resolverFor(c.schema, x.Child))
		if err != nil {
			return nil, false, err
		}
		c.steps = append(c.steps, func(child Operator) Operator {
			return &filterOp{child: child, pred: pred}
		})
		c.work = true
		return c, true, nil

	case *algebra.Project:
		c, ok, err := e.planChain(x.Child)
		if !ok || err != nil {
			return nil, false, err
		}
		in := c.schema
		indices := make([]int, len(x.Attrs))
		for i, a := range x.Attrs {
			ix := schemaIndex(in, a)
			if ix < 0 {
				return nil, false, fmt.Errorf("exec: projection attribute %s not in input", a)
			}
			indices[i] = ix
		}
		if identityProjection(indices, len(in)) {
			return c, true, nil
		}
		schema := make([]algebra.Attr, len(indices))
		for i, ix := range indices {
			schema[i] = in[ix]
		}
		c.steps = append(c.steps, func(child Operator) Operator {
			return &projectOp{child: child, indices: indices, schema: schema}
		})
		c.schema = schema
		return c, true, nil

	case *algebra.UDF:
		c, ok, err := e.planChain(x.Child)
		if !ok || err != nil {
			return nil, false, err
		}
		fn, ok := e.UDFs[x.Name]
		if !ok {
			return nil, false, fmt.Errorf("exec: udf %q not registered", x.Name)
		}
		in := c.schema
		argIdx := make([]int, len(x.Args))
		for i, a := range x.Args {
			ix := schemaIndex(in, a)
			if ix < 0 {
				return nil, false, fmt.Errorf("exec: udf argument %s not in input", a)
			}
			argIdx[i] = ix
		}
		outSchema := x.Schema()
		srcIdx := make([]int, len(outSchema))
		for i, a := range outSchema {
			if a == x.Out {
				srcIdx[i] = -1
				continue
			}
			srcIdx[i] = schemaIndex(in, a)
		}
		node := x
		c.steps = append(c.steps, func(child Operator) Operator {
			return &udfOp{child: child, node: node, fn: fn, argIdx: argIdx, srcIdx: srcIdx, schema: outSchema}
		})
		c.schema = outSchema
		c.work = true
		return c, true, nil

	case *algebra.Encrypt:
		c, ok, err := e.planChain(x.Child)
		if !ok || err != nil {
			return nil, false, err
		}
		cols, err := e.encCols(x, c.schema)
		if err != nil {
			return nil, false, err
		}
		ce := e.chainExecutor()
		c.steps = append(c.steps, func(child Operator) Operator {
			return &encryptOp{child: child, e: ce, cols: cols}
		})
		c.work = true
		return c, true, nil

	case *algebra.Decrypt:
		c, ok, err := e.planChain(x.Child)
		if !ok || err != nil {
			return nil, false, err
		}
		in := c.schema
		cols := make([]decCol, 0, len(x.Attrs))
		for _, a := range x.Attrs {
			var idx []int
			for ci, sa := range in {
				if sa == a {
					idx = append(idx, ci)
				}
			}
			cols = append(cols, decCol{attr: a, idx: idx})
		}
		ce := e.chainExecutor()
		c.steps = append(c.steps, func(child Operator) Operator {
			return &decryptOp{child: child, e: ce, cols: cols, ring: ce.ringCache()}
		})
		c.work = true
		return c, true, nil

	case *algebra.Join:
		if e.Mem != nil {
			// Under a memory budget the join build must be able to reserve
			// and spill; the shared pre-built index path stays sequential.
			return nil, false, nil
		}
		c, ok, err := e.planChain(x.L)
		if !ok || err != nil {
			return nil, false, err
		}
		right, err := e.Build(x.R)
		if err != nil {
			return nil, false, err
		}
		ls, rs := c.schema, right.Schema()
		schema := append(append([]algebra.Attr{}, ls...), rs...)
		hashL, hashR := -1, -1
		var residual []algebra.Pred
		for _, cj := range algebra.Conjuncts(x.Cond) {
			if aa, ok := cj.(*algebra.CmpAA); ok && aa.Op == sql.OpEq && hashL < 0 {
				li, ri := schemaIndex(ls, aa.L), schemaIndex(rs, aa.R)
				if li < 0 || ri < 0 {
					li, ri = schemaIndex(ls, aa.R), schemaIndex(rs, aa.L)
				}
				if li >= 0 && ri >= 0 {
					hashL, hashR = li, ri
					continue
				}
			}
			residual = append(residual, cj)
		}
		batch := e.batchSize()
		leftWidth := len(ls)
		if hashL < 0 {
			// Nested-loop join: every worker streams its morsels' product
			// against the shared pre-drained right rows and filters by the
			// full condition. Left order is preserved per morsel, so the
			// morsel-order merge is row-identical to the sequential stream.
			full, err := e.compileColPred(x.Cond, plainResolver(schema))
			if err != nil {
				return nil, false, err
			}
			cj := &chainJoin{right: right, hashR: -1}
			c.joins = append(c.joins, cj)
			c.steps = append(c.steps, func(child Operator) Operator {
				prod := &productOp{left: child, schema: schema, batch: batch,
					shared: true, rightRows: cj.rows}
				return &filterOp{child: prod, pred: full}
			})
			c.schema = schema
			c.work = true
			return c, true, nil
		}
		var resPred predFn
		if rp := algebra.And(residual...); rp != nil {
			resPred, err = e.compilePred(rp, plainResolver(schema))
			if err != nil {
				return nil, false, err
			}
		}
		cj := &chainJoin{right: right, hashR: hashR}
		c.joins = append(c.joins, cj)
		c.steps = append(c.steps, func(child Operator) Operator {
			return &hashJoinOp{
				left: child, schema: schema,
				hashL: hashL, hashR: hashR,
				residual: resPred, batch: batch, leftWidth: leftWidth,
				idx: cj.idx, shared: true,
			}
		})
		c.schema = schema
		c.work = true
		return c, true, nil

	case *algebra.Product:
		if e.Mem != nil {
			return nil, false, nil // products stay sequential under a budget
		}
		c, ok, err := e.planChain(x.L)
		if !ok || err != nil {
			return nil, false, err
		}
		right, err := e.Build(x.R)
		if err != nil {
			return nil, false, err
		}
		schema := append(append([]algebra.Attr{}, c.schema...), right.Schema()...)
		cj := &chainJoin{right: right, hashR: -1}
		c.joins = append(c.joins, cj)
		batch := e.batchSize()
		c.steps = append(c.steps, func(child Operator) Operator {
			return &productOp{left: child, schema: schema, batch: batch,
				shared: true, rightRows: cj.rows}
		})
		c.schema = schema
		c.work = true
		return c, true, nil
	}
	return nil, false, nil
}

// morselScan serves one assigned row-range of pre-resolved column vectors
// in zero-copy batch windows: the anchor of a worker's private chain,
// re-assigned and re-opened per claimed morsel.
type morselScan struct {
	schema []algebra.Attr
	cols   []Column
	batch  int
	ctx    context.Context // run cancellation, probed per window
	lo, hi int
	pos    int
}

func (s *morselScan) assign(lo, hi int)      { s.lo, s.hi = lo, hi }
func (s *morselScan) Schema() []algebra.Attr { return s.schema }
func (s *morselScan) Open() error            { s.pos = s.lo; return nil }
func (s *morselScan) Close() error           { return nil }
func (s *morselScan) Next() (*Batch, error) {
	if err := ctxErr(s.ctx); err != nil {
		return nil, err
	}
	return scanWindow(s.cols, &s.pos, s.hi, s.batch), nil
}

// chainRun is the shared run state of one morsel-parallel execution: the
// resolved (and projected) anchor columns and the morsel geometry.
type chainRun struct {
	c        *chain
	cols     []Column
	ctx      context.Context // run cancellation, handed to every worker scan
	total    int
	morsel   int
	nMorsels int
}

// prepareChain resolves the anchor's cached columns and builds every join
// index of the chain (the build sides run now, before any worker starts, so
// probe workers share finished, immutable indexes).
func (e *Executor) prepareChain(c *chain) (*chainRun, error) {
	cols, total, err := c.t.snapshotColumns()
	if err != nil {
		return nil, err
	}
	for _, cj := range c.joins {
		if cj.hashR < 0 {
			t, err := Drain(cj.right)
			if err != nil {
				return nil, err
			}
			cj.rows = t.Rows
			continue
		}
		idx, err := buildJoinIndex(cj.right, cj.hashR)
		if err != nil {
			return nil, err
		}
		cj.idx = idx
	}
	morsel := e.morselRows()
	return &chainRun{
		c:      c,
		cols:   projectCols(cols, c.project),
		ctx:    e.Ctx,
		total:  total,
		morsel: morsel, nMorsels: (total + morsel - 1) / morsel,
	}, nil
}

// bounds returns morsel idx's row range.
func (r *chainRun) bounds(idx int) (lo, hi int) {
	lo = idx * r.morsel
	hi = lo + r.morsel
	if hi > r.total {
		hi = r.total
	}
	return lo, hi
}

// newWorkerChain instantiates one worker's private operator chain over its
// own morsel scan.
func (r *chainRun) newWorkerChain(batch int) (Operator, *morselScan) {
	src := &morselScan{schema: r.c.anchorSchema, cols: r.cols, batch: batch, ctx: r.ctx}
	var op Operator = src
	for _, step := range r.c.steps {
		op = step(op)
	}
	return op, src
}

// morselOut is one finished morsel: the chain's output batches (streaming
// merges) or a partial aggregation table (group-by builds).
type morselOut struct {
	idx     int
	batches []*Batch
	part    *groupTable
	err     error
}

// drainMorsel runs op over morsel idx of its assigned scan, feeding every
// output batch to visit. A Close error surfaces only when nothing failed
// earlier — the one drain skeleton every morsel worker shares.
func drainMorsel(op Operator, src *morselScan, r *chainRun, idx int, visit func(*Batch) error) error {
	lo, hi := r.bounds(idx)
	src.assign(lo, hi)
	if err := op.Open(); err != nil {
		op.Close()
		return err
	}
	var err error
	for err == nil {
		var b *Batch
		if b, err = op.Next(); err != nil || b == nil {
			break
		}
		err = visit(b)
	}
	if cerr := op.Close(); err == nil {
		err = cerr
	}
	return err
}

// runChainMorsel runs one worker's chain over morsel idx, collecting the
// output batches.
func runChainMorsel(op Operator, src *morselScan, r *chainRun, idx int) morselOut {
	out := morselOut{idx: idx}
	out.err = drainMorsel(op, src, r, idx, func(b *Batch) error {
		out.batches = append(out.batches, b)
		return nil
	})
	return out
}

// runMorsels is the one morsel scheduler both parallel paths share: workers
// goroutines each instantiate their private state via newWorker (which
// receives the worker's slot index, letting traced runs attribute morsel
// claims per worker) and then claim morsel indexes in ascending order off
// an atomic counter, ticket-bounded so at most `bound` morsels are claimed
// but not yet consumed (a slow head morsel never lets fast workers race
// arbitrarily far ahead); consume receives every finished morsel on the
// caller's goroutine in strict ascending morsel order. A consume error (or
// a morsel's own error, surfaced through consume) stops further consumption
// but the drain continues, so no worker is ever left blocked; the first
// error in morsel order is returned. A receive from abort (nil = never)
// stops the run early. Workers always exit before runMorsels returns.
func runMorsels(workers, nMorsels, bound int, abort <-chan struct{},
	newWorker func(w int) func(idx int) morselOut, consume func(morselOut) error) error {
	if workers > nMorsels {
		workers = nMorsels
	}
	results := make(chan morselOut, bound)
	tickets := make(chan struct{}, bound)
	done := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()   // runs after close(done): workers unblock and exit
	defer close(done) //
	var claim atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work := newWorker(w)
			for {
				select {
				case tickets <- struct{}{}:
				case <-done:
					return
				}
				idx := int(claim.Add(1)) - 1
				if idx >= nMorsels {
					return
				}
				out := workProtected(work, idx)
				select {
				case results <- out:
				case <-done:
					return
				}
			}
		}(w)
	}
	pending := make(map[int]morselOut)
	var firstErr error
	for next := 0; next < nMorsels; next++ {
		out, ok := pending[next]
		for !ok {
			select {
			case out = <-results:
			case <-abort:
				if firstErr == nil {
					firstErr = errMorselsAborted
				}
				return firstErr
			}
			pending[out.idx] = out
			out, ok = pending[next]
		}
		delete(pending, next)
		<-tickets
		if firstErr != nil {
			continue // already failing: drain remaining claims only
		}
		if err := consume(out); err != nil {
			firstErr = err
		}
	}
	return firstErr
}

// errMorselsAborted reports a run torn down via the abort channel (operator
// Close mid-stream); the origin of the teardown carries the real cause.
var errMorselsAborted = fmt.Errorf("exec: morsel run aborted")

// workProtected runs one morsel with the worker-boundary panic guard: a
// panicking chain (a buggy UDF, an injected fault) becomes that morsel's
// error instead of killing the process, and the scheduler tears the run
// down through the ordinary error path — no worker or merger is left
// blocked.
func workProtected(work func(idx int) morselOut, idx int) (out morselOut) {
	defer func() {
		if r := recover(); r != nil {
			out = morselOut{idx: idx, err: NewPanicError("morsel worker", r)}
		}
	}()
	return work(idx)
}

// parallelOp executes a compiled chain morsel-parallel and re-emits the
// output batches in morsel order: a drop-in Operator whose stream is
// row-for-row identical to the sequential chain. Open starts the scheduler
// on a merger goroutine; Next pulls already-ordered morsels off its output
// channel.
type parallelOp struct {
	e       *Executor
	c       *chain
	batch   int
	workers int
	sp      *obs.Span // traced runs: per-worker morsel claim accounting

	merged  chan morselOut
	done    chan struct{}
	closing *sync.Once
	wg      sync.WaitGroup

	cur    []*Batch
	curPos int
	failed error
	opened bool
}

func (p *parallelOp) Schema() []algebra.Attr { return p.c.schema }

func (p *parallelOp) Open() error {
	p.teardown() // support re-Open after a previous run
	run, err := p.e.prepareChain(p.c)
	if err != nil {
		return err
	}
	p.merged = make(chan morselOut)
	p.done = make(chan struct{})
	p.closing = new(sync.Once)
	p.cur, p.curPos, p.failed = nil, 0, nil
	p.opened = true
	if p.sp != nil {
		p.sp.InitWorkers(p.workers)
	}
	done, merged := p.done, p.merged
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer close(merged)
		// Merger-boundary panic guard: a panic on this goroutine surfaces
		// as a failed morsel on the merged channel (before its close), so
		// Next reports it as an ordinary error instead of the process dying.
		defer func() {
			if r := recover(); r != nil {
				select {
				case merged <- morselOut{err: NewPanicError("morsel merge", r)}:
				case <-done:
				}
			}
		}()
		runMorsels(p.workers, run.nMorsels, 2*p.workers, done,
			func(w int) func(idx int) morselOut {
				op, src := run.newWorkerChain(p.batch)
				return func(idx int) morselOut {
					if p.sp != nil {
						p.sp.Claim(w)
					}
					return runChainMorsel(op, src, run, idx)
				}
			},
			func(out morselOut) error {
				select {
				case merged <- out:
				case <-done:
					return errMorselsAborted
				}
				return out.err // stop consuming after a failed morsel
			})
	}()
	return nil
}

func (p *parallelOp) Next() (*Batch, error) {
	if p.failed != nil {
		return nil, p.failed
	}
	if !p.opened {
		return nil, nil
	}
	for {
		if p.cur != nil {
			if p.curPos < len(p.cur) {
				b := p.cur[p.curPos]
				p.curPos++
				return b, nil
			}
			p.cur = nil
		}
		out, ok := <-p.merged
		if !ok {
			return nil, nil // every morsel consumed
		}
		if out.err != nil {
			p.failed = out.err
			p.teardown()
			return nil, p.failed
		}
		p.cur, p.curPos = out.batches, 0
	}
}

// teardown aborts the scheduler and waits for the merger and its workers.
func (p *parallelOp) teardown() {
	if !p.opened {
		return
	}
	p.closing.Do(func() { close(p.done) })
	for range p.merged { // unblock a merger mid-send, drain to close
	}
	p.wg.Wait()
	p.opened, p.merged, p.done = false, nil, nil
}

func (p *parallelOp) Close() error {
	p.teardown()
	return nil
}

// buildParallel compiles n into a morsel-parallel operator when its shape
// qualifies and the anchor relation is large enough to split; ok=false
// falls back to the sequential build.
func (e *Executor) buildParallel(n algebra.Node) (Operator, bool, error) {
	switch n.(type) {
	case *algebra.Select, *algebra.Project, *algebra.UDF, *algebra.Encrypt, *algebra.Decrypt,
		*algebra.Join, *algebra.Product:
	default:
		return nil, false, nil // bare scans and pipeline breakers have their own paths
	}
	c, ok, err := e.planChain(n)
	if err != nil || !ok {
		return nil, false, err
	}
	if !c.work || c.t.Len() <= e.morselRows() {
		return nil, false, nil // nothing to win: rebuild sequentially
	}
	return &parallelOp{e: e, c: c, batch: e.batchSize(), workers: e.parWorkers()}, true, nil
}

// buildParallel aggregates the group-by's input chain morsel-parallel on
// the shared scheduler: each worker aggregates its claimed morsels into
// gather-mode partial tables, and the caller's goroutine merges them into
// gt in strict morsel order.
func (g *groupByOp) buildParallel(gt *groupTable) error {
	e := g.e
	run, err := e.prepareChain(g.par)
	if err != nil {
		return err
	}
	batch := e.batchSize()
	if g.sp != nil {
		g.sp.InitWorkers(e.parWorkers())
	}
	return runMorsels(e.parWorkers(), run.nMorsels, 2*e.parWorkers(), nil,
		func(w int) func(idx int) morselOut {
			op, src := run.newWorkerChain(batch)
			// Per-worker ring cache: partial adds resolve Paillier rings
			// without sharing a mutable map across goroutines.
			ring := e.ringCache()
			return func(idx int) morselOut {
				if g.sp != nil {
					g.sp.Claim(w)
				}
				out := morselOut{idx: idx, part: newGroupTable(g.keyIdx, g.aggIdx, g.specs, true, ring)}
				out.err = drainMorsel(op, src, run, idx, out.part.addBatch)
				return out
			}
		},
		func(out morselOut) error {
			if out.err != nil {
				return out.err
			}
			return gt.mergeFrom(out.part)
		})
}
