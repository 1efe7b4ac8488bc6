package distsim

import (
	"sort"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/authz"
	"mpq/internal/core"
	"mpq/internal/exec"
	"mpq/internal/sql"
)

// TestPartialEdgeFollowsMarks runs γ[T; count(*)](σ[S = C](Hosp × Ins)),
// the product at X and the selection and group-by at Y, streaming, and
// checks it against the central reference (centralRun). When X may see C
// only encrypted, moving the selection to X would break uniform visibility
// over S ≃ C, so the plan carries no mark and the stream ships the raw
// rows of the product. When X may see C in plaintext, the edge is marked
// and ships one row per group. Results match the reference either way.
func TestPartialEdgeFollowsMarks(t *testing.T) {
	hS, hT, iC := algebra.A("Hosp", "S"), algebra.A("Hosp", "T"), algebra.A("Ins", "C")
	for _, xPlainC := range []bool{false, true} {
		p := authz.NewPolicy()
		p.MustGrant("Hosp", "H", []string{"S", "T"}, nil)
		p.MustGrant("Hosp", "X", []string{"S", "T"}, nil)
		p.MustGrant("Hosp", "Y", []string{"T"}, []string{"S"})
		p.MustGrant("Ins", "I", []string{"C"}, nil)
		if xPlainC {
			p.MustGrant("Ins", "X", []string{"C"}, nil)
		} else {
			p.MustGrant("Ins", "X", nil, []string{"C"})
		}
		p.MustGrant("Ins", "Y", nil, []string{"C"})
		sys := core.NewSystem(p, "H", "I", "X", "Y")

		hosp := algebra.NewBase("Hosp", "H", []algebra.Attr{hS, hT}, 8, nil)
		ins := algebra.NewBase("Ins", "I", []algebra.Attr{iC}, 10, nil)
		prod := algebra.NewProduct(hosp, ins)
		sel := algebra.NewSelect(prod, &algebra.CmpAA{L: hS, Op: sql.OpEq, R: iC}, 0.1)
		grp := algebra.NewGroupBy(sel, []algebra.Attr{hT}, []algebra.AggSpec{{Func: sql.AggCount, Star: true}}, 5)
		ext, err := sys.Extend(sys.Analyze(grp, nil), core.Assignment{prod: "X", sel: "Y", grp: "Y"})
		if err != nil {
			t.Fatal(err)
		}
		sys.MarkPartials(ext)
		if got := len(ext.Partials); (got == 1) != xPlainC || got > 1 {
			t.Fatalf("X plaintext on C = %v: %d marks", xPlainC, got)
		}

		nw := NewNetwork()
		nw.AddSubject("H", map[string]*exec.Table{"Hosp": hospTable()})
		nw.AddSubject("I", map[string]*exec.Table{"Ins": insTable()})
		full, err := nw.DistributeKeys(ext, testPaillierBits)
		if err != nil {
			t.Fatal(err)
		}
		consts, err := exec.PrepareConstants(ext.Root, full, exec.KindsFromCatalog(exampleCatalog()))
		if err != nil {
			t.Fatal(err)
		}
		sorted := func(tbl *exec.Table) []string {
			var rows []string
			for _, row := range tbl.Rows {
				rows = append(rows, exec.DisplayString(row))
			}
			sort.Strings(rows)
			return rows
		}
		out, ts, err := nw.Clone().ExecuteParallel(ext, consts)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]int)
		for _, tr := range ts {
			got[EdgeKey(tr.From, tr.To)] += tr.Rows
		}
		ref, want := centralRun(t, nw, ext, full, consts)
		gotRows, wantRows := sorted(out), sorted(ref)
		if len(gotRows) != 5 || len(gotRows) != len(wantRows) {
			t.Fatalf("X plaintext on C = %v: %d groups, reference %d, want 5", xPlainC, len(gotRows), len(wantRows))
		}
		for i := range wantRows {
			if gotRows[i] != wantRows[i] {
				t.Errorf("X plaintext on C = %v: row %d = %s, reference %s", xPlainC, i, gotRows[i], wantRows[i])
			}
		}
		xy := EdgeKey("X", "Y")
		wantXY := want[xy]
		if xPlainC {
			wantXY = len(wantRows) // one partial row per group
		}
		if got[xy] != wantXY || want[xy] != 80 {
			t.Errorf("X plaintext on C = %v: X→Y shipped %d rows (reference %d), want %d of the reference's 80",
				xPlainC, got[xy], want[xy], wantXY)
		}
		for k, n := range want {
			if k != xy && got[k] != n {
				t.Errorf("X plaintext on C = %v: %s shipped %d rows, reference %d", xPlainC, k, got[k], n)
			}
		}
	}
}
