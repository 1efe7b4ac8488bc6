package engine

import (
	"context"
	"fmt"
	"strings"
	"time"

	"mpq/internal/algebra"
	"mpq/internal/authz"
	"mpq/internal/exec"
	"mpq/internal/obs"
)

// ExplainNode is one operator of the annotated extended plan: the paper's
// plan rendering (π, σ, ⋈, γ, encrypt/decrypt) decorated with the subject
// that executed it and the actuals of a traced run — EXPLAIN ANALYZE, not
// EXPLAIN, since the numbers come from executing the query.
type ExplainNode struct {
	// Op is the operator rendering, e.g. σ[p_size = 15].
	Op string `json:"op"`
	// Subject executed the operator (the λ assignment; base relations stay
	// with their data authority; selections a partial-aggregated edge moves
	// run at its producer).
	Subject string `json:"subject,omitempty"`
	// EstRows is the optimizer's output-cardinality estimate; Rows is what
	// the run actually produced. Their ratio is the optimizer's estimation
	// error on this operator.
	EstRows float64 `json:"est_rows"`
	Rows    int64   `json:"rows"`
	// Batches and TimeNs account the operator's Next calls: batches
	// produced and inclusive wall time (children included).
	Batches int64 `json:"batches"`
	TimeNs  int64 `json:"time_ns"`
	// Cached marks an encrypt operator that served its ciphertext from the
	// plan's ciphertext column cache in this run instead of encrypting.
	Cached   bool           `json:"cached,omitempty"`
	Children []*ExplainNode `json:"children,omitempty"`
}

// ExplainEdge is one inter-subject shipment of the traced run.
type ExplainEdge struct {
	From    string `json:"from"`
	To      string `json:"to"`
	Op      string `json:"op"` // consuming operation
	Rows    int64  `json:"rows"`
	Bytes   int64  `json:"bytes"`
	Batches int64  `json:"batches"`
	// WaitNs is the simulated network time charged to the edge (RTT on the
	// first batch plus per-batch serialization delay); zero without a
	// configured LinkDelay.
	WaitNs int64 `json:"wait_ns"`
}

// Explanation is the outcome of Engine.ExplainCtx: the executed, annotated
// extended plan with the run's transfers and lifecycle timings.
type Explanation struct {
	Query        string          `json:"query"`
	CacheHit     bool            `json:"cache_hit"`
	AuthzVersion uint64          `json:"authz_version"`
	Executors    []authz.Subject `json:"executors"`
	// Rows is the final user-facing result cardinality (after decryption,
	// ordering, projection, and limit).
	Rows       int           `json:"rows"`
	PlanTimeNs int64         `json:"plan_time_ns"`
	ExecTimeNs int64         `json:"exec_time_ns"`
	Plan       *ExplainNode  `json:"plan"`
	Edges      []ExplainEdge `json:"edges,omitempty"`
}

// ExplainCtx executes the query with tracing enabled and returns the
// annotated extended plan: per-operator rows, batches, and wall time,
// per-edge shipment accounting, and the run's phase timings. The run is a
// real query: it counts in the engine statistics and may hit the plan
// cache. ctx carries QueryCtx's cancellation, deadline, and admission
// semantics.
func (e *Engine) ExplainCtx(ctx context.Context, query string) (*Explanation, error) {
	_, ex, err := e.QueryTracedCtx(ctx, query)
	return ex, err
}

// QueryTraced executes like Query with tracing enabled, returning both the
// full response (result table included) and the annotated explanation —
// the mpqd ?trace=1 surface, where the caller wants rows and trace together.
func (e *Engine) QueryTraced(query string) (*Response, *Explanation, error) {
	return e.QueryTracedCtx(nil, query)
}

// QueryTracedCtx is QueryTraced under a caller context.
func (e *Engine) QueryTracedCtx(ctx context.Context, query string) (*Response, *Explanation, error) {
	tr := obs.NewTrace()
	resp, pq, err := e.run(ctx, query, tr, nil)
	if err != nil {
		return nil, nil, err
	}
	return resp, buildExplanation(query, resp, pq, tr), nil
}

// buildExplanation assembles the report from a completed traced run. On a
// partial-aggregated edge (core.ExtendedPlan.Partials) the streaming
// runtime's producer runs the moved selections and a γ-partial fold,
// rendered between the consumer's merging group-by and the selections at
// the producer's subject.
func buildExplanation(query string, resp *Response, pq *preparedQuery, tr *obs.Trace) *Explanation {
	ext := pq.result.Extended
	producers := make(map[algebra.Node]authz.Subject) // partial γ and moved σ
	for shipped, pe := range ext.Partials {
		at := ext.Assign.Executor(shipped)
		producers[pe.GroupBy] = at
		for _, s := range pe.Selects {
			producers[s] = at
		}
	}
	node := func(op string, subject authz.Subject, est float64, ref any) *ExplainNode {
		en := &ExplainNode{Op: op, Subject: string(subject), EstRows: est}
		if sp := tr.ByRef(ref); sp != nil {
			en.Rows = sp.Rows()
			en.Batches = sp.Batches()
			en.TimeNs = sp.Nanos()
			en.Cached = sp.Cached()
		}
		return en
	}
	var build func(n algebra.Node) *ExplainNode
	build = func(n algebra.Node) *ExplainNode {
		en := node(n.Op(), ext.Assign.Executor(n), n.Stats().Rows, n)
		parent := en
		if at, ok := producers[n]; ok {
			if g, isGroupBy := n.(*algebra.GroupBy); isGroupBy {
				ps := exec.PartialSpan{G: g}
				parent = node(ps.Op(), at, n.Stats().Rows, ps)
				en.Children = append(en.Children, parent)
			} else {
				en.Subject = string(at)
			}
		}
		for _, c := range n.Children() {
			parent.Children = append(parent.Children, build(c))
		}
		return en
	}

	ex := &Explanation{
		Query:        query,
		CacheHit:     resp.CacheHit,
		AuthzVersion: resp.AuthzVersion,
		Executors:    resp.Executors,
		Rows:         resp.Rows,
		PlanTimeNs:   resp.PlanTime.Nanoseconds(),
		ExecTimeNs:   resp.ExecTime.Nanoseconds(),
		Plan:         build(ext.Root),
	}
	for _, ed := range tr.Edges() {
		ex.Edges = append(ex.Edges, ExplainEdge{
			From: ed.From, To: ed.To, Op: ed.Op,
			Rows: ed.Rows, Bytes: ed.Bytes, Batches: ed.Batches,
			WaitNs: ed.WaitNanos,
		})
	}
	return ex
}

// Text renders the explanation as an indented plan tree followed by the
// transfer ledger, in the spirit of EXPLAIN ANALYZE output:
//
//	π[disease,job] @user (est=80 rows=4 batches=1 time=1.2ms)
//	└── ⋈[ssn=ssn] @provider ...
func (x *Explanation) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", x.Query)
	fmt.Fprintf(&b, "cache_hit=%v authz_version=%d rows=%d plan=%s exec=%s\n",
		x.CacheHit, x.AuthzVersion, x.Rows,
		time.Duration(x.PlanTimeNs), time.Duration(x.ExecTimeNs))
	var walk func(n *ExplainNode, prefix string, last bool, root bool)
	walk = func(n *ExplainNode, prefix string, last, root bool) {
		line, childPrefix := prefix, prefix
		if !root {
			if last {
				line += "└── "
				childPrefix += "    "
			} else {
				line += "├── "
				childPrefix += "│   "
			}
		}
		b.WriteString(line)
		b.WriteString(n.Op)
		if n.Subject != "" {
			fmt.Fprintf(&b, " @%s", n.Subject)
		}
		fmt.Fprintf(&b, " (est=%.0f rows=%d batches=%d time=%s",
			n.EstRows, n.Rows, n.Batches, time.Duration(n.TimeNs))
		if n.Cached {
			b.WriteString(" cached")
		}
		b.WriteString(")\n")
		for i, c := range n.Children {
			walk(c, childPrefix, i == len(n.Children)-1, false)
		}
	}
	walk(x.Plan, "", true, true)
	for _, e := range x.Edges {
		fmt.Fprintf(&b, "transfer %s → %s for %s: rows=%d bytes=%d batches=%d wait=%s\n",
			e.From, e.To, e.Op, e.Rows, e.Bytes, e.Batches,
			time.Duration(e.WaitNs))
	}
	return b.String()
}
