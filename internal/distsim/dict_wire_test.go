package distsim

import (
	"fmt"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/core"
	"mpq/internal/exec"
	"mpq/internal/planner"
)

// TestDictWireAccounting pins the per-edge accounting contract of dict
// layouts: codes cost 4 bytes per cell every batch, the dictionary's content
// crosses an edge exactly once, and the recorded plain-equivalent bytes are
// what a ColStr batch of the same cells would have cost.
func TestDictWireAccounting(t *testing.T) {
	dict := []string{"stroke", "flu", "asthma"}
	codes := []uint32{0, 1, 0, 2, 0, 0, 1, 0}
	col := exec.Column{Kind: exec.ColDict, Codes: codes, Dict: dict}
	b := &exec.Batch{Cols: []exec.Column{col}, N: len(codes)}

	var dictContent int64
	for _, s := range dict {
		dictContent += int64(len(s))
	}
	var plain int64
	for _, c := range codes {
		plain += int64(len(dict[c]))
	}

	before := exec.ReadDictStats()
	dl := newDictLedger()
	first := batchBytes(b, dl)
	if want := 4*int64(len(codes)) + dictContent; first != want {
		t.Errorf("first batch = %d bytes, want %d (codes + dictionary)", first, want)
	}
	second := batchBytes(b, dl)
	if want := 4 * int64(len(codes)); second != want {
		t.Errorf("second batch = %d bytes, want %d (codes only)", second, want)
	}
	// A different edge (fresh ledger) pays for the dictionary again.
	if other := batchBytes(b, newDictLedger()); other != first {
		t.Errorf("fresh edge = %d bytes, want %d", other, first)
	}
	after := exec.ReadDictStats()
	if got := after.WirePlainBytes - before.WirePlainBytes; got != uint64(3*plain) {
		t.Errorf("plain-equivalent bytes = %d, want %d", got, 3*plain)
	}
	if got := after.WireDictBytes - before.WireDictBytes; got != uint64(2*first+second) {
		t.Errorf("dict wire bytes = %d, want %d", got, 2*first+second)
	}

	// The non-dict layout of the same cells is accounted cell for cell.
	vals := make([]exec.Value, len(codes))
	rows := make([][]exec.Value, len(codes))
	for i, c := range codes {
		vals[i] = exec.String(dict[c])
		rows[i] = []exec.Value{vals[i]}
	}
	pb := &exec.Batch{Cols: []exec.Column{exec.NewColumn(vals)}, N: len(codes)}
	if pb.Cols[0].Kind == exec.ColDict {
		t.Fatal("NewColumn promoted; promotion belongs to the table cache")
	}
	if got := batchBytes(pb, newDictLedger()); got != rowsBytes(rows) || got != plain {
		t.Errorf("plain batch = %d bytes, want %d", got, plain)
	}
}

// bigTables inflates the running example to n hospital rows (distinct join
// keys, 3-valued D and T columns) so dictionary layouts have repetition to
// exploit on the wire.
func bigTables(n int) (*exec.Table, *exec.Table) {
	hosp := exec.NewTable([]algebra.Attr{
		algebra.A("Hosp", "S"), algebra.A("Hosp", "B"), algebra.A("Hosp", "D"), algebra.A("Hosp", "T"),
	})
	ds := []string{"stroke", "stroke", "flu", "asthma"} // half the rows pass D='stroke'
	ts := []string{"surgery", "medication", "therapy"}
	ins := exec.NewTable([]algebra.Attr{algebra.A("Ins", "C"), algebra.A("Ins", "P")})
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("s%04d", i)
		hosp.Append([]exec.Value{
			exec.String(key), exec.Int(int64(10 + i)),
			exec.String(ds[i%len(ds)]), exec.String(ts[i%len(ts)]),
		})
		ins.Append([]exec.Value{exec.String(key), exec.Float(float64(20 + i%300))})
	}
	return hosp, ins
}

// runStreamTotal executes the running-example plan over the inflated tables
// on the streaming runtime and returns the decrypted result rows and the
// ledger's total shipped bytes, all under the dictionary policy active at
// call time (fresh tables per call, so the columnar cache builds under it).
func runStreamTotal(t *testing.T) ([]string, int64) {
	t.Helper()
	cat := exampleCatalog()
	plan, err := planner.New(cat).PlanSQL(runningQuery)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(examplePolicy(), "H", "I", "U", "X", "Y")
	an := sys.Analyze(plan.Root, nil)
	var sel, join, grp, hav algebra.Node
	algebra.PostOrder(plan.Root, func(n algebra.Node) {
		switch x := n.(type) {
		case *algebra.Select:
			if _, isBase := x.Child.(*algebra.Base); isBase {
				sel = n
			} else {
				hav = n
			}
		case *algebra.Join:
			join = n
		case *algebra.GroupBy:
			grp = n
		}
	})
	ext, err := sys.Extend(an, core.Assignment{sel: "H", join: "X", grp: "X", hav: "Y"})
	if err != nil {
		t.Fatal(err)
	}
	hosp, ins := bigTables(600)
	nw := NewNetwork()
	nw.AddSubject("H", map[string]*exec.Table{"Hosp": hosp})
	nw.AddSubject("I", map[string]*exec.Table{"Ins": ins})
	nw.BatchSize = 128 // several batches per edge: the dictionary must ship once, codes per batch
	full, err := nw.DistributeKeys(ext, testPaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	consts, err := exec.PrepareConstants(ext.Root, full, exec.KindsFromCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]exec.Value
	schema, _, err := nw.ExecuteStreamCtx(nil, ext, consts, func(b [][]exec.Value) error {
		rows = append(rows, b...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl := exec.NewTable(schema)
	tbl.Rows = rows
	user := exec.NewExecutor()
	user.Keys = full
	got, err := user.DecryptTable(tbl)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, got.Len())
	for i, r := range got.Rows {
		out[i] = exec.DisplayString(r)
	}
	return out, nw.TotalBytes()
}

// TestDictStreamShipsFewerBytes runs the string-heavy streamed query with
// dictionary promotion forced off and then on: identical decrypted results,
// strictly fewer ledger bytes with dictionaries (codes per batch, each
// dictionary once per edge).
func TestDictStreamShipsFewerBytes(t *testing.T) {
	old := exec.SetDictPolicy(exec.DictPolicy{MinRows: 1, MaxRatio: 0})
	defer exec.SetDictPolicy(old)
	plainRows, plainBytes := runStreamTotal(t)

	// The production ratio: low-cardinality strings (D, T) promote, the
	// all-distinct join keys stay plain — promoting those would ship a
	// dictionary as large as the cells plus 4-byte codes on top, which is
	// exactly what the cardinality gate exists to refuse.
	exec.SetDictPolicy(exec.DictPolicy{MinRows: 1, MaxRatio: 0.5})
	dictRows, dictBytes := runStreamTotal(t)

	if len(plainRows) != len(dictRows) {
		t.Fatalf("dict run returned %d rows, plain %d", len(dictRows), len(plainRows))
	}
	for i := range plainRows {
		if plainRows[i] != dictRows[i] {
			t.Fatalf("row %d differs:\ndict:  %s\nplain: %s", i, dictRows[i], plainRows[i])
		}
	}
	if dictBytes >= plainBytes {
		t.Fatalf("dict run shipped %d bytes, plain %d: no wire saving", dictBytes, plainBytes)
	}
	t.Logf("shipped bytes: plain=%d dict=%d (%.1f%% saved)",
		plainBytes, dictBytes, 100*float64(plainBytes-dictBytes)/float64(plainBytes))
}

// rowsBytes is the row-wise reference for batchBytes: each cell as
// valueBytes accounts it.
func rowsBytes(rows [][]exec.Value) int64 {
	var total int64
	for _, row := range rows {
		for _, v := range row {
			total += valueBytes(v)
		}
	}
	return total
}
