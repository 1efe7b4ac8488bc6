package exec

import (
	"context"
	"fmt"

	"mpq/internal/algebra"
)

// DefaultBatchSize is the number of rows exchanged per pipeline batch when
// the executor does not override it.
const DefaultBatchSize = 1024

// Batch is a unit of data flow in the batch pipeline: N rows stored
// column-major as one Column per schema attribute. Batches returned by Next
// are never empty, and their columns must be treated as immutable —
// operators that rewrite cells (encryption, decryption) build replacement
// columns, so projections forward input columns and scans share slices with
// long-lived storage without copies. Row-oriented consumers convert at the
// boundary with Rows or Row; the operator interior never materializes rows
// on its fast paths.
type Batch struct {
	Cols []Column
	N    int // row count; every column holds exactly N cells
}

// Operator is one node of a compiled batch pipeline. The contract is the
// classical Open/Next/Close volcano interface, vectorized: Next returns the
// next non-empty batch of rows, or (nil, nil) once the stream is exhausted.
// All column indexes, predicate evaluators, projection maps, and key
// material are resolved when the operator is built, not per row.
type Operator interface {
	// Schema returns the attributes of the rows the operator produces.
	Schema() []algebra.Attr
	// Open prepares the operator (and its inputs) for iteration.
	Open() error
	// Next returns the next batch, or (nil, nil) at end of stream.
	Next() (*Batch, error)
	// Close releases the operator's resources; it is safe after errors.
	Close() error
}

// NewBatchFromRows columnarizes a window of row-major rows: per column, the
// cells are copied into the tightest vector layout NewColumn detects. Every
// row must have exactly width cells.
func NewBatchFromRows(rows [][]Value, width int) (*Batch, error) {
	for _, r := range rows {
		if len(r) != width {
			return nil, fmt.Errorf("exec: row width %d != schema width %d", len(r), width)
		}
	}
	b := &Batch{Cols: make([]Column, width), N: len(rows)}
	buf := make([]Value, len(rows))
	for ci := 0; ci < width; ci++ {
		for ri, r := range rows {
			buf[ri] = r[ci]
		}
		b.Cols[ci] = NewColumn(buf)
	}
	return b, nil
}

// Rows materializes the batch row-major: the conversion shim for the
// table-oriented call sites (Drain, the distributed root sink, build sides).
func (b *Batch) Rows() [][]Value {
	out := make([][]Value, b.N)
	cells := make([]Value, b.N*len(b.Cols))
	for ri := 0; ri < b.N; ri++ {
		row := cells[ri*len(b.Cols) : (ri+1)*len(b.Cols) : (ri+1)*len(b.Cols)]
		for ci := range b.Cols {
			row[ci] = b.Cols[ci].Value(ri)
		}
		out[ri] = row
	}
	return out
}

// Row materializes row i into dst, which must have len(b.Cols) cells.
func (b *Batch) Row(i int, dst []Value) {
	for ci := range b.Cols {
		dst[ci] = b.Cols[ci].Value(i)
	}
}

// Gather returns a new batch holding the selected rows, in selection order:
// every column is gathered with its typed layout preserved.
func (b *Batch) Gather(sel []int32) *Batch {
	out := &Batch{Cols: make([]Column, len(b.Cols)), N: len(sel)}
	for ci := range b.Cols {
		out.Cols[ci] = b.Cols[ci].gather(sel)
	}
	return out
}

// batchSize returns the executor's configured pipeline batch size.
func (e *Executor) batchSize() int {
	if e.BatchSize > 0 {
		return e.BatchSize
	}
	return DefaultBatchSize
}

// Drain runs a compiled pipeline to completion and materializes its output
// as a table: the compatibility bridge between the columnar interior and
// the *Table call sites.
func Drain(op Operator) (*Table, error) {
	if err := op.Open(); err != nil {
		op.Close()
		return nil, err
	}
	// Close must run even when Next panics (injected faults, buggy UDFs):
	// memory reservations hang off it, and a skipped Close leaks them past
	// the recover boundary above us.
	closed := false
	closeOp := func() error { closed = true; return op.Close() }
	defer func() {
		if !closed {
			op.Close()
		}
	}()
	out := NewTable(op.Schema())
	for {
		b, err := op.Next()
		if err != nil {
			closeOp()
			return nil, err
		}
		if b == nil {
			break
		}
		out.Rows = append(out.Rows, b.Rows()...)
	}
	if err := closeOp(); err != nil {
		return nil, err
	}
	return out, nil
}

// colScan streams a table's cached column vectors in zero-copy batch
// windows: Open resolves (building on first use) the table's columnar
// representation and applies the projection as a header pick, and every Next
// slices the next window off the shared vectors — no per-scan transposition,
// no cell copies. Ragged rows surface as an Open error (the cache build
// validates widths, exactly as the transposing scan did per window).
type colScan struct {
	schema  []algebra.Attr
	t       *Table
	project []int // nil = identity
	batch   int
	ctx     context.Context // run cancellation, probed per window (nil = never)
	cols    []Column        // projected headers, resolved at Open
	n       int             // row count the vectors were built at (the scan bound)
	pos     int
}

func newColScan(t *Table, project []int, batch int) *colScan {
	schema := t.Schema
	if project != nil {
		schema = make([]algebra.Attr, len(project))
		for i, ix := range project {
			schema[i] = t.Schema[ix]
		}
	}
	return &colScan{schema: schema, t: t, project: project, batch: batch}
}

func (s *colScan) Schema() []algebra.Attr { return s.schema }
func (s *colScan) Close() error           { return nil }

func (s *colScan) Open() error {
	cols, n, err := s.t.snapshotColumns()
	if err != nil {
		return err
	}
	s.cols = cols
	if s.project != nil {
		s.cols = make([]Column, len(s.project))
		for i, ix := range s.project {
			s.cols[i] = cols[ix]
		}
	}
	s.n = n
	s.pos = 0
	return nil
}

// Next emits the next at-most-batch-row window as zero-copy column slices; nil
// once the snapshot is exhausted.
func (s *colScan) Next() (*Batch, error) {
	if err := ctxErr(s.ctx); err != nil {
		return nil, err
	}
	if s.pos >= s.n {
		return nil, nil
	}
	end := s.pos + s.batch
	if end > s.n {
		end = s.n
	}
	b := &Batch{Cols: make([]Column, len(s.cols)), N: end - s.pos}
	for ci := range s.cols {
		b.Cols[ci] = s.cols[ci].slice(s.pos, end)
	}
	s.pos = end
	return b, nil
}

// identityProjection reports whether indices is 0,1,...,n-1 over a schema
// of width n, i.e. the projection is a no-op.
func identityProjection(indices []int, width int) bool {
	if len(indices) != width {
		return false
	}
	for i, ix := range indices {
		if ix != i {
			return false
		}
	}
	return true
}
