package profile

import (
	"strings"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/sql"
)

// Attribute shorthands for the running example. Following the paper,
// Hosp(S,B,D,T) is held by authority H and Ins(C,P) by authority I.
var (
	hS = algebra.A("Hosp", "S")
	hB = algebra.A("Hosp", "B")
	hD = algebra.A("Hosp", "D")
	hT = algebra.A("Hosp", "T")
	iC = algebra.A("Ins", "C")
	iP = algebra.A("Ins", "P")
)

func set(attrs ...algebra.Attr) algebra.AttrSet { return algebra.NewAttrSet(attrs...) }

// runningExamplePlan builds the Figure 1(a) plan:
// σ_{avg(P)>100}(γ_{T,avg(P)}(σ_{D='stroke'}(π_{S,D,T}(Hosp)) ⋈_{S=C} Ins)).
func runningExamplePlan() (root algebra.Node, nodes map[string]algebra.Node) {
	hosp := algebra.NewBase("Hosp", "H", []algebra.Attr{hS, hB, hD, hT}, 1000, nil)
	ins := algebra.NewBase("Ins", "I", []algebra.Attr{iC, iP}, 5000, nil)
	proj := algebra.NewProject(hosp, []algebra.Attr{hS, hD, hT})
	sel := algebra.NewSelect(proj, &algebra.CmpAV{A: hD, Op: sql.OpEq, V: sql.StringValue("stroke")}, 0.1)
	join := algebra.NewJoin(sel, ins, &algebra.CmpAA{L: hS, Op: sql.OpEq, R: iC}, 0.0002)
	grp := algebra.NewGroupBy1(join, []algebra.Attr{hT}, sql.AggAvg, iP, false, 10)
	hav := algebra.NewSelect(grp, &algebra.CmpAV{A: iP, Op: sql.OpGt, V: sql.NumberValue(100), Agg: sql.AggAvg}, 0.5)
	return hav, map[string]algebra.Node{
		"hosp": hosp, "ins": ins, "proj": proj, "sel": sel,
		"join": join, "grp": grp, "hav": hav,
	}
}

// TestFigure3Profiles checks every profile of the running example against
// Figure 3 of the paper.
func TestFigure3Profiles(t *testing.T) {
	root, nodes := runningExamplePlan()
	profs := ForPlan(root)

	check := func(name string, wantVP, wantIP algebra.AttrSet, wantEq []algebra.AttrSet) {
		t.Helper()
		p := profs[nodes[name]]
		if !p.VP.Equal(wantVP) {
			t.Errorf("%s: VP = %v, want %v", name, p.VP, wantVP)
		}
		if !p.IP.Equal(wantIP) {
			t.Errorf("%s: IP = %v, want %v", name, p.IP, wantIP)
		}
		if !p.VE.Empty() || !p.IE.Empty() {
			t.Errorf("%s: unexpected encrypted components %v %v", name, p.VE, p.IE)
		}
		if p.Eq.Len() != len(wantEq) {
			t.Errorf("%s: eq = %v, want %v", name, p.Eq, wantEq)
			return
		}
		for _, w := range wantEq {
			found := false
			for _, s := range p.Eq.Sets() {
				if s.Equal(w) {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: eq = %v missing %v", name, p.Eq, w)
			}
		}
	}

	check("hosp", set(hS, hB, hD, hT), set(), nil)
	check("ins", set(iC, iP), set(), nil)
	check("proj", set(hS, hD, hT), set(), nil)
	check("sel", set(hS, hD, hT), set(hD), nil)
	check("join", set(hS, hD, hT, iC, iP), set(hD), []algebra.AttrSet{set(hS, iC)})
	check("grp", set(hT, iP), set(hD, hT), []algebra.AttrSet{set(hS, iC)})
	check("hav", set(hT, iP), set(hD, hT, iP), []algebra.AttrSet{set(hS, iC)})
}

// TestFigure5ExtendedProfiles reproduces the extended plan of Figure 5:
// encrypting SDT at Hosp and CP at Ins, then decrypting P before the final
// selection.
func TestFigure5ExtendedProfiles(t *testing.T) {
	hosp := algebra.NewBase("Hosp", "H", []algebra.Attr{hS, hB, hD, hT}, 1000, nil)
	ins := algebra.NewBase("Ins", "I", []algebra.Attr{iC, iP}, 5000, nil)
	proj := algebra.NewProject(hosp, []algebra.Attr{hS, hD, hT})
	encH := algebra.NewEncrypt(proj, []algebra.Attr{hS, hD, hT})
	sel := algebra.NewSelect(encH, &algebra.CmpAV{A: hD, Op: sql.OpEq, V: sql.StringValue("stroke")}, 0.1)
	encI := algebra.NewEncrypt(ins, []algebra.Attr{iC, iP})
	join := algebra.NewJoin(sel, encI, &algebra.CmpAA{L: hS, Op: sql.OpEq, R: iC}, 0.0002)
	grp := algebra.NewGroupBy1(join, []algebra.Attr{hT}, sql.AggAvg, iP, false, 10)
	dec := algebra.NewDecrypt(grp, []algebra.Attr{iP})
	hav := algebra.NewSelect(dec, &algebra.CmpAV{A: iP, Op: sql.OpGt, V: sql.NumberValue(100), Agg: sql.AggAvg}, 0.5)

	profs := ForPlan(hav)

	// After encryption, the selection sees SDT encrypted; D becomes implicit
	// encrypted.
	pSel := profs[sel]
	if !pSel.VE.Equal(set(hS, hD, hT)) || !pSel.IE.Equal(set(hD)) || !pSel.VP.Empty() {
		t.Errorf("sel profile = %v", pSel)
	}
	// Join: everything encrypted, equivalence SC.
	pJoin := profs[join]
	if !pJoin.VE.Equal(set(hS, hD, hT, iC, iP)) || !pJoin.IE.Equal(set(hD)) {
		t.Errorf("join profile = %v", pJoin)
	}
	if !pJoin.Eq.Same(hS, iC) {
		t.Errorf("join eq = %v", pJoin.Eq)
	}
	// Final: P decrypted to plaintext, then implicit plaintext via having.
	pHav := profs[hav]
	if !pHav.VP.Equal(set(iP)) || !pHav.VE.Equal(set(hT)) {
		t.Errorf("hav visible = %v", pHav)
	}
	if !pHav.IP.Equal(set(iP)) || !pHav.IE.Equal(set(hD, hT)) {
		t.Errorf("hav implicit = %v", pHav)
	}
	if err := Validate(hav); err != nil {
		t.Errorf("extended plan should validate: %v", err)
	}
}

func TestBaseProfile(t *testing.T) {
	p := ForBase([]algebra.Attr{hS, hB})
	if !p.VP.Equal(set(hS, hB)) || !p.VE.Empty() || !p.IP.Empty() || !p.IE.Empty() || p.Eq.Len() != 0 {
		t.Errorf("base profile = %v", p)
	}
}

func TestProjectKeepsImplicit(t *testing.T) {
	p := ForBase([]algebra.Attr{hS, hB, hD})
	p = Select(p, &algebra.CmpAV{A: hD, Op: sql.OpEq, V: sql.NumberValue(1)})
	p = Project(p, []algebra.Attr{hS})
	if !p.VP.Equal(set(hS)) {
		t.Errorf("VP = %v", p.VP)
	}
	// Implicit D survives projection: "select A from R where B=10" leaks B.
	if !p.IP.Equal(set(hD)) {
		t.Errorf("IP = %v", p.IP)
	}
}

func TestSelectEncryptedAttributeGoesToIE(t *testing.T) {
	p := ForBase([]algebra.Attr{hS, hD})
	p = Encrypt(p, set(hD))
	p = Select(p, &algebra.CmpAV{A: hD, Op: sql.OpEq, V: sql.NumberValue(1)})
	if !p.IE.Equal(set(hD)) || !p.IP.Empty() {
		t.Errorf("implicit = p:%v e:%v", p.IP, p.IE)
	}
}

func TestEquivalenceTransitivity(t *testing.T) {
	// S=C and C=X must collapse into a single set {S, C, X}.
	x := algebra.A("Other", "X")
	p := ForBase([]algebra.Attr{hS, iC, x})
	p = Select(p, &algebra.CmpAA{L: hS, Op: sql.OpEq, R: iC})
	p = Select(p, &algebra.CmpAA{L: iC, Op: sql.OpEq, R: x})
	if p.Eq.Len() != 1 {
		t.Fatalf("eq = %v", p.Eq)
	}
	if !p.Eq.Same(hS, x) {
		t.Errorf("transitivity failed: %v", p.Eq)
	}
}

func TestGroupByCountStarKeepsOnlyKeys(t *testing.T) {
	p := ForBase([]algebra.Attr{hD, hT})
	p = GroupBy(p, []algebra.Attr{hD}, set())
	if !p.VP.Equal(set(hD)) {
		t.Errorf("VP = %v", p.VP)
	}
	if !p.IP.Equal(set(hD)) {
		t.Errorf("IP = %v", p.IP)
	}
}

func TestUDFProfile(t *testing.T) {
	// µ_{SB,S} from Figure 2: consumes B, output S; SB become equivalent.
	p := ForBase([]algebra.Attr{hS, hB, iC, hT})
	p = Select(p, &algebra.CmpAA{L: hS, Op: sql.OpEq, R: iC})
	p = UDF(p, []algebra.Attr{hS, hB}, hS)
	if p.VP.Has(hB) {
		t.Errorf("B should be consumed: %v", p.VP)
	}
	if !p.VP.Has(hS) || !p.VP.Has(hT) {
		t.Errorf("VP = %v", p.VP)
	}
	// SB merges with the prior SC equivalence into {S, B, C}.
	if !p.Eq.Same(hB, iC) {
		t.Errorf("eq = %v", p.Eq)
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	p := ForBase([]algebra.Attr{hS, hB})
	q := Decrypt(Encrypt(p, set(hS)), set(hS))
	if !q.Equal(p) {
		t.Errorf("round trip changed profile: %v vs %v", q, p)
	}
}

func TestEncryptOnlyMovesVisiblePlaintext(t *testing.T) {
	p := ForBase([]algebra.Attr{hS})
	q := Encrypt(p, set(hS, hB)) // B is not in the schema
	if q.VE.Has(hB) {
		t.Errorf("encrypt introduced a phantom attribute: %v", q.VE)
	}
}

func TestValidateRejectsMixedComparison(t *testing.T) {
	hosp := algebra.NewBase("Hosp", "H", []algebra.Attr{hS}, 10, nil)
	ins := algebra.NewBase("Ins", "I", []algebra.Attr{iC}, 10, nil)
	encI := algebra.NewEncrypt(ins, []algebra.Attr{iC})
	join := algebra.NewJoin(hosp, encI, &algebra.CmpAA{L: hS, Op: sql.OpEq, R: iC}, 0.1)
	err := Validate(join)
	if err == nil {
		t.Fatalf("mixed plaintext/encrypted comparison should not validate")
	}
	if !strings.Contains(err.Error(), "both") {
		t.Errorf("err = %v", err)
	}
}

func TestValidateRejectsInvisibleAttribute(t *testing.T) {
	hosp := algebra.NewBase("Hosp", "H", []algebra.Attr{hS, hD}, 10, nil)
	proj := algebra.NewProject(hosp, []algebra.Attr{hS})
	sel := algebra.NewSelect(proj, &algebra.CmpAV{A: hD, Op: sql.OpEq, V: sql.NumberValue(1)}, 0.5)
	if Validate(sel) == nil {
		t.Errorf("selection over a projected-away attribute should not validate")
	}
}

func TestValidateRejectsDoubleEncrypt(t *testing.T) {
	hosp := algebra.NewBase("Hosp", "H", []algebra.Attr{hS}, 10, nil)
	e1 := algebra.NewEncrypt(hosp, []algebra.Attr{hS})
	e2 := algebra.NewEncrypt(e1, []algebra.Attr{hS})
	if Validate(e2) == nil {
		t.Errorf("re-encrypting an encrypted attribute should not validate")
	}
	d1 := algebra.NewDecrypt(hosp, []algebra.Attr{hS})
	if Validate(d1) == nil {
		t.Errorf("decrypting a plaintext attribute should not validate")
	}
}

func TestValidateUDFUniformInputs(t *testing.T) {
	hosp := algebra.NewBase("Hosp", "H", []algebra.Attr{hS, hB}, 10, nil)
	enc := algebra.NewEncrypt(hosp, []algebra.Attr{hS})
	u := algebra.NewUDF(enc, "f", []algebra.Attr{hS, hB}, hS)
	if Validate(u) == nil {
		t.Errorf("udf over mixed plaintext/encrypted inputs should not validate")
	}
}

func TestEquivSetsOps(t *testing.T) {
	e := NewEquivSets()
	e.Union(set(hS, iC))
	e.Union(set(hB, hT))
	if e.Len() != 2 {
		t.Fatalf("len = %d", e.Len())
	}
	// Merging through an overlapping set.
	e.Union(set(iC, hB))
	if e.Len() != 1 {
		t.Fatalf("after merge len = %d: %v", e.Len(), e)
	}
	if !e.Same(hS, hT) {
		t.Errorf("transitive same failed")
	}
	if !e.SetOf(iP).Empty() {
		t.Errorf("SetOf for absent attr should be empty")
	}
	if !e.Same(iP, iP) {
		t.Errorf("Same(a,a) must hold")
	}
	// Union of a singleton is a no-op.
	e.Union(set(iP))
	if !e.SetOf(iP).Empty() {
		t.Errorf("singleton union should be a no-op")
	}
	c := e.Clone()
	c.Union(set(iP, hD))
	if !e.SetOf(iP).Empty() {
		t.Errorf("clone is not independent")
	}
}

func TestEquivSetsRefinedByAndEqual(t *testing.T) {
	a := NewEquivSets()
	a.Union(set(hS, iC))
	b := a.Clone()
	b.Union(set(hS, hB))
	if !a.RefinedBy(b) {
		t.Errorf("a should be refined by b")
	}
	if b.RefinedBy(a) {
		t.Errorf("b should not be refined by a")
	}
	if a.Equal(b) || !a.Equal(a.Clone()) {
		t.Errorf("Equal failed")
	}
}

func TestProfileString(t *testing.T) {
	p := ForBase([]algebra.Attr{hS})
	s := p.String()
	if !strings.Contains(s, "Hosp.S") {
		t.Errorf("String = %q", s)
	}
}
