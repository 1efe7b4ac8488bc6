package core

import (
	"errors"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/authz"
	"mpq/internal/sql"
)

// partialPlan is γ[T; count(*)](σ[S = C](Hosp(S,T) × Ins(C))) with the
// product at X and the selection and group-by at Y: the edge X→Y feeds the
// group-by through one selection. Y may see S and C only encrypted; X holds
// S and T in plaintext and C in plaintext when xPlainC is set, otherwise
// only encrypted.
func partialPlan(t *testing.T, xPlainC bool) (*System, *ExtendedPlan) {
	t.Helper()
	p := authz.NewPolicy()
	p.MustGrant("Hosp", "H", []string{"S", "T"}, nil)
	p.MustGrant("Hosp", "U", []string{"S", "T"}, nil)
	p.MustGrant("Hosp", "X", []string{"S", "T"}, nil)
	p.MustGrant("Hosp", "Y", []string{"T"}, []string{"S"})
	p.MustGrant("Ins", "I", []string{"C"}, nil)
	p.MustGrant("Ins", "U", []string{"C"}, nil)
	if xPlainC {
		p.MustGrant("Ins", "X", []string{"C"}, nil)
	} else {
		p.MustGrant("Ins", "X", nil, []string{"C"})
	}
	p.MustGrant("Ins", "Y", nil, []string{"C"})
	sys := NewSystem(p, "H", "I", "U", "X", "Y")

	hosp := algebra.NewBase("Hosp", "H", []algebra.Attr{hS, hT}, 8, nil)
	ins := algebra.NewBase("Ins", "I", []algebra.Attr{iC}, 10, nil)
	prod := algebra.NewProduct(hosp, ins)
	sel := algebra.NewSelect(prod, &algebra.CmpAA{L: hS, Op: sql.OpEq, R: iC}, 0.1)
	grp := algebra.NewGroupBy(sel, []algebra.Attr{hT}, []algebra.AggSpec{{Func: sql.AggCount, Star: true}}, 5)
	an := sys.Analyze(grp, nil)
	ext, err := sys.Extend(an, Assignment{prod: "X", sel: "Y", grp: "Y"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckAssignment(ext.Root, ext.Assign); err != nil {
		t.Fatalf("plan as assigned is not authorized: %v", err)
	}
	return sys, ext
}

// TestMarkPartialsNeedsAnAuthorizedProducer: moving σ[S = C] from Y to X
// makes X hold the equivalence S ≃ C. With S plaintext and C encrypted-only
// at X, that breaks uniform visibility (Definition 4.1, condition 3) even
// though Y, holding both encrypted, is authorized: the edge gets no mark.
// With C plaintext at X as well, X is an authorized assignee and the edge is
// marked.
func TestMarkPartialsNeedsAnAuthorizedProducer(t *testing.T) {
	sys, ext := partialPlan(t, false)
	var sel algebra.Node
	algebra.PostOrder(ext.Root, func(n algebra.Node) {
		if _, ok := n.(*algebra.Select); ok {
			sel = n
		}
	})
	if at := ext.Assign.Executor(sel.Children()[0]); at != "X" {
		t.Fatalf("selection's operand shipped from %s, want X", at)
	}
	var denial *authz.DenialReason
	if err := sys.Policy.View("X").Check(ext.Profiles[sel]); !errors.As(err, &denial) || denial.Condition != 3 {
		t.Fatalf("X on the selection's result: %v, want a condition-3 denial", err)
	}
	sys.MarkPartials(ext)
	if len(ext.Partials) != 0 {
		t.Errorf("unauthorized producer marked: %v", ext.Partials)
	}

	sys, ext = partialPlan(t, true)
	sys.MarkPartials(ext)
	if len(ext.Partials) != 1 {
		t.Fatalf("authorized producer: %d marks, want 1", len(ext.Partials))
	}
	for shipped, pe := range ext.Partials {
		if ext.Assign.Executor(shipped) != "X" || ext.Assign.Executor(pe.GroupBy) != "Y" || len(pe.Selects) != 1 {
			t.Errorf("mark %s@%s → %s with %d selections, want X → Y with 1",
				shipped.Op(), ext.Assign.Executor(shipped), pe.GroupBy.Op(), len(pe.Selects))
		}
	}
}
