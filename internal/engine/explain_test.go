package engine

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

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
		resp, _, err := eng.query(nil, q.SQL, tr)
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

// TestExplainMaterializing checks the traced Materializing reference: spans
// must appear (materialized results account rows and inclusive time as one
// batch) under the whole-relation interior.
func TestExplainMaterializing(t *testing.T) {
	t.Run("materializing", func(t *testing.T) {
		cfg := testConfig(t, tpch.UAPmix)
		cfg.Materializing = true
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := eng.Explain(querySQL(t, 6))
		if err != nil {
			t.Fatal(err)
		}
		if ex.Plan.Rows == 0 || ex.Plan.TimeNs == 0 {
			t.Errorf("root rows=%d time=%d, want > 0", ex.Plan.Rows, ex.Plan.TimeNs)
		}
	})
}
