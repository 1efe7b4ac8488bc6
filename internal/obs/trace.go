package obs

import (
	"sync"
	"sync/atomic"
)

// Trace records the execution of one query: a span per compiled operator
// and an edge per inter-subject transfer. A nil *Trace means tracing is
// off — callers must branch on nil at wiring time so the disabled path
// costs nothing per batch.
type Trace struct {
	mu    sync.Mutex
	spans []*Span
	byRef map[any]*Span
	edges []Edge
}

// NewTrace returns an empty trace.
func NewTrace() *Trace {
	return &Trace{byRef: make(map[any]*Span)}
}

// Span accounts one operator: batches and rows it produced and wall time
// spent inside its Next calls. Counters are atomics: one trace is written
// from every fragment goroutine of a run, and no lock orders those writes
// against a reader.
type Span struct {
	Op     string // operator rendering, e.g. σ[p_size = 15]
	Detail string // extra context, e.g. the executing subject

	ref     any
	rows    atomic.Int64
	batches atomic.Int64
	nanos   atomic.Int64
	cached  atomic.Bool // the operator served a cache instead of computing
}

// Edge accounts one provider→provider (or provider→user) data transfer.
type Edge struct {
	From    string
	To      string
	Op      string // rendering of the producing fragment root
	Rows    int64
	Bytes   int64
	Batches int64
	// WaitNanos is the simulated network time charged to this edge:
	// round-trip latency on the first batch plus per-batch serialization
	// delay.
	WaitNanos int64
}

// Span returns the span registered under ref, creating it on first use.
// ref is typically the *algebra node the operator was compiled from.
func (t *Trace) Span(ref any, op, detail string) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.byRef[ref]; ok {
		return s
	}
	s := &Span{Op: op, Detail: detail, ref: ref}
	t.byRef[ref] = s
	t.spans = append(t.spans, s)
	return s
}

// ByRef returns the span registered under ref, or nil.
func (t *Trace) ByRef(ref any) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byRef[ref]
}

// AddEdge appends a completed transfer record.
func (t *Trace) AddEdge(e Edge) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.edges = append(t.edges, e)
}

// Edges returns a copy of the recorded transfers.
func (t *Trace) Edges() []Edge {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Edge(nil), t.edges...)
}

// Spans returns the recorded spans in registration order.
func (t *Trace) Spans() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.spans...)
}

// Record accounts one Next call that produced rows in nanos wall time.
// Calls that produced no batch (end of stream) pass rows < 0.
func (s *Span) Record(rows int, nanos int64) {
	if rows >= 0 {
		s.rows.Add(int64(rows))
		s.batches.Add(1)
	}
	s.nanos.Add(nanos)
}

// AddNanos accounts wall time outside a timed Next call.
func (s *Span) AddNanos(n int64) { s.nanos.Add(n) }

// Rows returns the total rows the operator produced.
func (s *Span) Rows() int64 { return s.rows.Load() }

// Batches returns the number of batches the operator produced.
func (s *Span) Batches() int64 { return s.batches.Load() }

// Nanos returns the wall time spent inside the operator's Next calls.
func (s *Span) Nanos() int64 { return s.nanos.Load() }

// MarkCached records that the operator served its rows from a cache (the
// ciphertext column cache of an encrypt operator) instead of computing them.
func (s *Span) MarkCached() { s.cached.Store(true) }

// Cached reports whether MarkCached was called.
func (s *Span) Cached() bool { return s.cached.Load() }
