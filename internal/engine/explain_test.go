package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"mpq/internal/distsim"
	"mpq/internal/exec"
	"mpq/internal/obs"
	"mpq/internal/tpch"
)

// TestTracedRunMatchesUntraced proves tracing is observation, not
// interference: for every query of the 22-query workload, a traced run
// returns byte-identical (canonically serialized) results to trusted
// centralized execution.
func TestTracedRunMatchesUntraced(t *testing.T) {
	eng, err := New(testConfig(t, tpch.UAPmix))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range tpch.Queries() {
		want := canon(centralized(t, q.SQL))
		tr := obs.NewTrace()
		resp, _, err := eng.run(nil, q.SQL, tr, nil)
		if err != nil {
			t.Fatalf("Q%d traced: %v", q.Num, err)
		}
		if got := canon(resp.Table); !bytes.Equal(got, want) {
			t.Errorf("Q%d: traced result differs from centralized\ngot:\n%s\nwant:\n%s", q.Num, got, want)
		}
		if len(tr.Spans()) == 0 {
			t.Errorf("Q%d: traced run recorded no spans", q.Num)
		}
	}
}

// TestExplainAnnotations checks the EXPLAIN ANALYZE surface on a multi-join
// TPC-H query: every operator of the annotated tree carries wall time, the
// root carries the result cardinality, cross-subject transfers appear as
// edges, and both renderings (text tree, JSON) are well formed.
func TestExplainAnnotations(t *testing.T) {
	eng, err := New(testConfig(t, tpch.UAPmix))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := eng.Explain(querySQL(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Plan == nil {
		t.Fatal("Explain returned no plan tree")
	}

	var nodes, timed int
	var walk func(n *ExplainNode)
	walk = func(n *ExplainNode) {
		nodes++
		if n.TimeNs > 0 {
			timed++
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(ex.Plan)
	if nodes < 5 {
		t.Fatalf("Q3 explained as only %d nodes", nodes)
	}
	if timed != nodes {
		t.Errorf("only %d of %d operators carry wall time", timed, nodes)
	}
	if ex.Plan.Rows == 0 || ex.Plan.Batches == 0 {
		t.Errorf("root operator rows=%d batches=%d, want > 0", ex.Plan.Rows, ex.Plan.Batches)
	}
	if ex.Rows == 0 {
		t.Error("explanation reports zero result rows")
	}
	if len(ex.Edges) == 0 {
		t.Error("multi-subject query produced no transfer edges")
	}
	for _, e := range ex.Edges {
		if e.Rows < 0 || e.Bytes <= 0 || e.Batches <= 0 {
			t.Errorf("degenerate edge %+v", e)
		}
	}

	text := ex.Text()
	for _, want := range []string{"rows=", "batches=", "time=", "transfer ", "└── "} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q:\n%s", want, text)
		}
	}

	blob, err := json.Marshal(ex)
	if err != nil {
		t.Fatal(err)
	}
	var back Explanation
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Plan == nil || back.Plan.Op != ex.Plan.Op {
		t.Error("JSON round trip lost the plan tree")
	}

	// An Explain run is a real query: a repeat must hit the plan cache.
	again, err := eng.Explain(querySQL(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("repeated Explain missed the plan cache")
	}
}

// TestPartialAggregationInstrumented: the producer-side shuffle operators
// are traced and faulted like every compiled operator. A traced UAPenc Q1
// explains the γ-partial fold and the moved selection at A1, the fold
// shipping one row per result group, and a fault armed on the group-by's
// rendering fires in A1's fragment before any partial reaches X.
func TestPartialAggregationInstrumented(t *testing.T) {
	eng, err := New(testConfig(t, tpch.UAPenc))
	if err != nil {
		t.Fatal(err)
	}
	q1 := querySQL(t, 1)
	ex, err := eng.Explain(q1)
	if err != nil {
		t.Fatal(err)
	}
	var group, partial *ExplainNode
	var walk func(n *ExplainNode)
	walk = func(n *ExplainNode) {
		for _, c := range n.Children {
			if strings.HasPrefix(c.Op, "γ-partial[") {
				group, partial = n, c
			}
			walk(c)
		}
	}
	walk(ex.Plan)
	if partial == nil {
		t.Fatalf("no γ-partial span in Q1:\n%s", ex.Text())
	}
	if partial.Subject != "A1" || group.Subject != "X" {
		t.Errorf("γ-partial @%s under γ @%s, want A1 under X:\n%s", partial.Subject, group.Subject, ex.Text())
	}
	if partial.Rows != int64(ex.Rows) || partial.Batches == 0 || partial.TimeNs == 0 {
		t.Errorf("γ-partial rows=%d batches=%d time=%d, want %d rows (one per group)",
			partial.Rows, partial.Batches, partial.TimeNs, ex.Rows)
	}
	if len(partial.Children) != 1 || !strings.HasPrefix(partial.Children[0].Op, "σ[") ||
		partial.Children[0].Subject != "A1" || partial.Children[0].Rows == 0 {
		t.Errorf("moved selection not traced at A1:\n%s", ex.Text())
	}

	cfg := testConfig(t, tpch.UAPenc)
	cfg.Faults = &distsim.Faults{Ops: &exec.FaultPoints{Ops: map[string]exec.FaultSpec{
		group.Op: {Kind: exec.FaultError, NthBatch: 1},
	}}}
	faulty, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = faulty.Query(q1)
	if !errors.Is(err, exec.ErrInjected) || !strings.Contains(err.Error(), " at A1: ") {
		t.Errorf("fault armed on %s: got %v, want an injected error in A1's fragment", group.Op, err)
	}
}
