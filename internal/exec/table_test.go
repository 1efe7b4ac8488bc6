package exec_test

import (
	"fmt"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/exec"
)

// TestColumnarCacheInvalidation covers the cached columnar store: the first
// scan builds the column vectors, Append invalidates them, and the next
// scan serves the appended rows (no stale cache).
func TestColumnarCacheInvalidation(t *testing.T) {
	a, b := algebra.A("R", "a"), algebra.A("R", "b")
	tbl := exec.NewTable([]algebra.Attr{a, b})
	for i := 0; i < 10; i++ {
		if err := tbl.Append([]exec.Value{exec.Int(int64(i)), exec.String(fmt.Sprint(i))}); err != nil {
			t.Fatal(err)
		}
	}
	e := exec.NewExecutor()
	e.Tables["R"] = tbl
	scan := algebra.NewBase("R", "host", []algebra.Attr{a, b}, 10, nil)

	out, err := e.Run(scan)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 10 {
		t.Fatalf("first scan: %d rows, want 10", out.Len())
	}

	if err := tbl.Append([]exec.Value{exec.Int(99), exec.String("new")}); err != nil {
		t.Fatal(err)
	}
	out, err = e.Run(scan)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 11 {
		t.Fatalf("post-append scan: %d rows, want 11 (stale columnar cache?)", out.Len())
	}
	last := out.Rows[10]
	if last[0].I != 99 || last[1].S != "new" {
		t.Fatalf("appended row not served: %v", last)
	}

	// An Append landing between two Next calls of an open scan must not
	// break the scan: colScan bounds itself by the snapshot its vectors
	// were built at, so it serves exactly the rows that existed at Open
	// (slicing past the vectors would panic).
	e2 := exec.NewExecutor()
	e2.BatchSize = 4 // several Next calls per scan
	e2.Tables["R"] = tbl
	op, err := e2.Build(scan)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for {
		b, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		seen += b.N
		if err := tbl.Append([]exec.Value{exec.Int(int64(seen)), exec.String("mid")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	if seen != 11 {
		t.Fatalf("scan with mid-scan appends served %d rows, want the 11-row snapshot", seen)
	}

	// The cache itself must be effective: Columns returns the same backing
	// vectors until invalidated.
	c1, err := tbl.Columns()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := tbl.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if &c1[0] != &c2[0] {
		t.Fatal("columnar cache rebuilt without invalidation")
	}
	tbl.InvalidateColumns()
	c3, err := tbl.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if &c1[0] == &c3[0] {
		t.Fatal("InvalidateColumns did not drop the cache")
	}
}
