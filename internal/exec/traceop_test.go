package exec

import (
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/obs"
	"mpq/internal/planner"
)

// TestBuildTraceSpans: a traced run must produce the same rows as an
// untraced one and leave a span per plan node carrying its row, batch, and
// time accounting.
func TestBuildTraceSpans(t *testing.T) {
	e := NewExecutor()
	exampleData(e)
	p, err := planner.New(exampleCatalog()).PlanSQL("select D from Hosp where B > 11")
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := e.RunPlan(p)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTrace()
	e.Trace = tr
	got, _, err := e.RunPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("traced run returned %d rows, want %d", got.Len(), want.Len())
	}
	for i := range want.Rows {
		if DisplayString(got.Rows[i]) != DisplayString(want.Rows[i]) {
			t.Fatalf("row %d differs traced vs untraced", i)
		}
	}

	// Every node of the plan tree must carry a span.
	var walk func(n algebra.Node)
	var spans int
	walk = func(n algebra.Node) {
		sp := tr.ByRef(n)
		if sp == nil {
			t.Fatalf("no span for node %s", n.Op())
		}
		spans++
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(p.Root)
	if spans < 2 {
		t.Fatalf("expected a multi-node plan, walked %d spans", spans)
	}

	root := tr.ByRef(p.Root)
	if root.Rows() != int64(want.Len()) {
		t.Errorf("root span rows = %d, want %d", root.Rows(), want.Len())
	}
	if root.Batches() == 0 || root.Nanos() == 0 {
		t.Errorf("root span batches/nanos = %d/%d, want > 0", root.Batches(), root.Nanos())
	}
}

// steadySource feeds the same pre-built batch forever: the allocation-free
// anchor the overhead benchmark drives Next through.
type steadySource struct {
	schema []algebra.Attr
	b      *Batch
}

func (s *steadySource) Schema() []algebra.Attr { return s.schema }
func (s *steadySource) Open() error            { return nil }
func (s *steadySource) Close() error           { return nil }
func (s *steadySource) Next() (*Batch, error)  { return s.b, nil }

// benchPipeline builds the benchmark pipeline: an all-pass filter over a
// steady 1024-row batch. The filter's pass-through path reuses its
// selection buffer and forwards the input batch unchanged, so once warm a
// Next call performs zero allocations — any allocation the disabled-trace
// benchmark reports would come from the tracing layer itself.
func benchPipeline() *filterOp {
	const n = 1024
	vals := make([]Value, n)
	for i := range vals {
		vals[i] = Int(int64(i))
	}
	batch := &Batch{Cols: []Column{NewColumn(vals)}, N: n}
	schema := []algebra.Attr{algebra.A("B", "x")}
	pass := func(b *Batch, sel []int32) ([]int32, error) { return sel, nil }
	return &filterOp{child: &steadySource{schema: schema, b: batch}, pred: pass}
}

// BenchmarkTraceOverhead measures the per-Next cost of the tracing layer.
// The disabled case is the pipeline exactly as Build compiles it without a
// Trace — CI asserts it reports 0 allocs/op, the guarantee that tracing
// costs nothing unless requested. The enabled case wraps the same pipeline
// in a span shim, bounding the overhead a traced query pays.
func BenchmarkTraceOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		op := benchPipeline()
		if err := op.Open(); err != nil {
			b.Fatal(err)
		}
		if _, err := op.Next(); err != nil { // warm the selection buffer
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := op.Next(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		tr := obs.NewTrace()
		op := &traceOp{inner: benchPipeline(), sp: tr.Span("bench", "σ", "")}
		if err := op.Open(); err != nil {
			b.Fatal(err)
		}
		if _, err := op.Next(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := op.Next(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
