package obs

import "testing"

func TestTraceSpans(t *testing.T) {
	tr := NewTrace()
	type node struct{ name string }
	n1, n2 := &node{"a"}, &node{"b"}
	s1 := tr.Span(n1, "σ[x>1]", "alice")
	if got := tr.Span(n1, "other", "other"); got != s1 {
		t.Fatal("Span must be idempotent per ref")
	}
	s2 := tr.Span(n2, "π[x]", "bob")
	s1.Record(100, 5000)
	s1.Record(28, 2000)
	s1.Record(-1, 300) // end-of-stream Next: time but no batch
	if s1.Rows() != 128 || s1.Batches() != 2 || s1.Nanos() != 7300 {
		t.Fatalf("span totals = %d/%d/%d", s1.Rows(), s1.Batches(), s1.Nanos())
	}
	if tr.ByRef(n2) != s2 || tr.ByRef("missing") != nil {
		t.Fatal("ByRef lookup broken")
	}
	if got := len(tr.Spans()); got != 2 {
		t.Fatalf("spans = %d, want 2", got)
	}
}

func TestTraceEdges(t *testing.T) {
	tr := NewTrace()
	tr.AddEdge(Edge{From: "H", To: "user", Op: "π", Rows: 10, Bytes: 420, Batches: 1, WaitNanos: 7})
	edges := tr.Edges()
	if len(edges) != 1 || edges[0].Bytes != 420 {
		t.Fatalf("edges = %+v", edges)
	}
}
