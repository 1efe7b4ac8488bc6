package exec

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"mpq/internal/algebra"
)

// Table is an in-memory relation: a schema of qualified attributes and rows
// of values in schema order. Schemas may contain repeated attributes
// (multiple aggregates over one attribute); columns are positional.
//
// A table additionally carries a lazily built columnar representation
// (Columns): immutable column vectors every scan serves zero-copy windows
// of, so repeated queries over one relation pay the row→column transposition
// once instead of once per scan. The cache is guarded by a mutex (tables are
// shared by concurrent executor clones) and invalidated by Append; callers
// that mutate Rows in place must call InvalidateColumns themselves.
type Table struct {
	Schema []algebra.Attr
	Rows   [][]Value

	colMu   sync.Mutex
	cols    []Column
	colRows int // len(Rows) the cache was built at
}

// Columns returns the table's cached column-vector representation, building
// it on first use (and rebuilding it when rows were appended since). The
// returned columns are immutable and shared: callers must never write
// through them. A ragged row — one whose width does not match the schema —
// fails the build, exactly as it would fail a scan.
func (t *Table) Columns() ([]Column, error) {
	cols, _, err := t.snapshotColumns()
	return cols, err
}

// snapshotColumns returns the cached columns together with the row count
// they were built at. Scans must bound themselves by that count — never by
// the live len(Rows), which a concurrent Append may have grown past the
// vectors.
func (t *Table) snapshotColumns() ([]Column, int, error) {
	t.colMu.Lock()
	defer t.colMu.Unlock()
	if t.cols != nil && t.colRows == len(t.Rows) {
		return t.cols, t.colRows, nil
	}
	width := len(t.Schema)
	for _, r := range t.Rows {
		if len(r) != width {
			return nil, 0, fmt.Errorf("exec: scanned row width %d != schema width %d", len(r), width)
		}
	}
	rows := t.Rows
	cols := make([]Column, width)
	buf := make([]Value, len(rows))
	for ci := 0; ci < width; ci++ {
		for ri, r := range rows {
			buf[ri] = r[ci]
		}
		cols[ci] = maybeDictColumn(NewColumn(buf))
	}
	t.cols, t.colRows = cols, len(rows)
	return cols, len(rows), nil
}

// InvalidateColumns drops the cached columnar representation. Appends are
// detected automatically (the cache records the row count it was built at);
// callers that mutate Rows any other way — in-place cell rewrites, length-
// preserving slice surgery — must call it before the next scan.
func (t *Table) InvalidateColumns() {
	t.colMu.Lock()
	t.cols, t.colRows = nil, 0
	t.colMu.Unlock()
}

// NewTable returns an empty table with the given schema.
func NewTable(schema []algebra.Attr) *Table {
	return &Table{Schema: append([]algebra.Attr{}, schema...)}
}

// ColIndex returns the first column index of attribute a, or -1.
func (t *Table) ColIndex(a algebra.Attr) int {
	for i, s := range t.Schema {
		if s == a {
			return i
		}
	}
	return -1
}

// Append adds a row. A row whose width does not match the schema yields an
// error (it would corrupt every positional access downstream): a malformed
// plan or mis-shipped sub-result fails its query instead of panicking the
// serving process.
func (t *Table) Append(row []Value) error {
	if len(row) != len(t.Schema) {
		return fmt.Errorf("exec: row width %d != schema width %d", len(row), len(t.Schema))
	}
	t.Rows = append(t.Rows, row)
	// No InvalidateColumns needed: the cache records the row count it was
	// built at, so the next scan rebuilds it (appends never mutate the
	// rows the stale vectors cover).
	return nil
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.Rows) }

// Project returns a new table with the given column indices.
func (t *Table) Project(indices []int) *Table {
	schema := make([]algebra.Attr, len(indices))
	for i, ix := range indices {
		schema[i] = t.Schema[ix]
	}
	out := NewTable(schema)
	for _, r := range t.Rows {
		row := make([]Value, len(indices))
		for i, ix := range indices {
			row[i] = r[ix]
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// SortBy sorts rows by the given (index, desc) specs, comparing plaintext
// values; ciphertext columns sort by OPE order when possible.
func (t *Table) SortBy(specs []SortSpec) error {
	var sortErr error
	sort.SliceStable(t.Rows, func(i, j int) bool {
		for _, sp := range specs {
			a, b := t.Rows[i][sp.Index], t.Rows[j][sp.Index]
			c, err := compareForSort(a, b)
			if err != nil {
				sortErr = err
				return false
			}
			if c != 0 {
				if sp.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	return sortErr
}

// SortSpec is one ordering criterion.
type SortSpec struct {
	Index int
	Desc  bool
}

func compareForSort(a, b Value) (int, error) {
	if a.Kind == KCipher && b.Kind == KCipher && a.C.Scheme == algebra.SchemeOPE && b.C.Scheme == algebra.SchemeOPE {
		return strings.Compare(string(a.C.Data), string(b.C.Data)), nil
	}
	if a.Kind == KNull && b.Kind == KNull {
		return 0, nil
	}
	if a.Kind == KNull {
		return -1, nil
	}
	if b.Kind == KNull {
		return 1, nil
	}
	return compare(a, b)
}

// Format renders the table as an aligned text grid with the given column
// headers (falling back to schema names).
func (t *Table) Format(headers []string) string {
	if headers == nil {
		headers = make([]string, len(t.Schema))
		for i, a := range t.Schema {
			headers[i] = a.String()
		}
	}
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	cells := make([][]string, len(t.Rows))
	for ri, r := range t.Rows {
		cells[ri] = make([]string, len(r))
		for ci, v := range r {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var sb strings.Builder
	// line writes one grid line; the last column is not padded, so no
	// line ends in spaces.
	line := func(row []string) {
		for i, c := range row {
			if i >= len(widths) {
				break
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			if i == len(widths)-1 {
				sb.WriteString(c)
			} else {
				fmt.Fprintf(&sb, "%-*s", widths[i], c)
			}
		}
		sb.WriteString("\n")
	}
	line(headers)
	rule := make([]string, len(widths))
	for i, w := range widths {
		rule[i] = strings.Repeat("-", w)
	}
	line(rule)
	for _, row := range cells {
		line(row)
	}
	return sb.String()
}
