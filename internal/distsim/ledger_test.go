package distsim

import (
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/authz"
	"mpq/internal/core"
	"mpq/internal/exec"
	"mpq/internal/planner"
)

// TestLedgerConsistency: the network's ledger records, link by link, the
// bytes of the transfers the run returned, and every transfer corresponds to
// a cross-subject edge of the extended plan.
func TestLedgerConsistency(t *testing.T) {
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
	nw := NewNetwork()
	nw.AddSubject("H", map[string]*exec.Table{"Hosp": hospTable()})
	nw.AddSubject("I", map[string]*exec.Table{"Ins": insTable()})
	full, err := nw.DistributeKeys(ext, testPaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	consts, err := exec.PrepareConstants(ext.Root, full, exec.KindsFromCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}
	_, run, err := nw.ExecuteParallel(ext, consts)
	if err != nil {
		t.Fatal(err)
	}

	links := map[[2]string]bool{}
	for _, tr := range nw.Transfers {
		links[[2]string{string(tr.From), string(tr.To)}] = true
		if tr.From == tr.To {
			t.Errorf("self transfer recorded: %+v", tr)
		}
		if tr.Bytes < 0 || tr.Rows < 0 {
			t.Errorf("negative accounting: %+v", tr)
		}
	}
	if got, want := shippedBytes(nw.Transfers), shippedBytes(run); got != want || got <= 0 {
		t.Errorf("ledger sum %d != run's transfers %d", got, want)
	}
	for l := range links {
		from, to := authz.Subject(l[0]), authz.Subject(l[1])
		if got, want := bytesBetween(nw.Transfers, from, to), bytesBetween(run, from, to); got != want {
			t.Errorf("link %v: ledger %d bytes, run's transfers %d", l, got, want)
		}
	}
	// Exactly the cross-subject edges of this assignment: H→X, I→X, X→Y.
	want := map[[2]string]bool{{"H", "X"}: true, {"I", "X"}: true, {"X", "Y"}: true}
	for l := range want {
		if !links[l] {
			t.Errorf("missing link %v", l)
		}
	}
	for l := range links {
		if !want[l] {
			t.Errorf("unexpected link %v", l)
		}
	}
}

// shippedBytes sums the bytes of a list of transfers.
func shippedBytes(ts []Transfer) int64 {
	var total int64
	for _, t := range ts {
		total += t.Bytes
	}
	return total
}

// bytesBetween sums the bytes shipped from one subject to another.
func bytesBetween(ts []Transfer, from, to authz.Subject) int64 {
	var total int64
	for _, t := range ts {
		if t.From == from && t.To == to {
			total += t.Bytes
		}
	}
	return total
}
