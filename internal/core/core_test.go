package core

import (
	"strings"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/authz"
	"mpq/internal/profile"
	"mpq/internal/sql"
)

// Shorthands for the running example attributes.
var (
	hS = algebra.A("Hosp", "S")
	hB = algebra.A("Hosp", "B")
	hD = algebra.A("Hosp", "D")
	hT = algebra.A("Hosp", "T")
	iC = algebra.A("Ins", "C")
	iP = algebra.A("Ins", "P")
)

func set(attrs ...algebra.Attr) algebra.AttrSet { return algebra.NewAttrSet(attrs...) }

// examplePolicy builds the Figure 1(b) authorizations.
func examplePolicy() *authz.Policy {
	p := authz.NewPolicy()
	p.MustGrant("Hosp", "H", []string{"S", "B", "D", "T"}, nil)
	p.MustGrant("Hosp", "I", []string{"B"}, []string{"S", "D", "T"})
	p.MustGrant("Hosp", "U", []string{"S", "D", "T"}, nil)
	p.MustGrant("Hosp", "X", []string{"D", "T"}, []string{"S"})
	p.MustGrant("Hosp", "Y", []string{"B", "D", "T"}, []string{"S"})
	p.MustGrant("Hosp", "Z", []string{"S", "T"}, []string{"D"})
	p.MustGrant("Hosp", authz.Any, []string{"D", "T"}, nil)
	p.MustGrant("Ins", "H", []string{"C"}, []string{"P"})
	p.MustGrant("Ins", "I", []string{"C", "P"}, nil)
	p.MustGrant("Ins", "U", []string{"C", "P"}, nil)
	p.MustGrant("Ins", "X", nil, []string{"C", "P"})
	p.MustGrant("Ins", "Y", []string{"P"}, []string{"C"})
	p.MustGrant("Ins", "Z", []string{"C"}, []string{"P"})
	p.MustGrant("Ins", authz.Any, nil, []string{"P"})
	return p
}

// examplePlan builds the Figure 1(a) plan and returns the named nodes.
func examplePlan() (algebra.Node, map[string]algebra.Node) {
	hosp := algebra.NewBase("Hosp", "H", []algebra.Attr{hS, hD, hT}, 1000, nil)
	ins := algebra.NewBase("Ins", "I", []algebra.Attr{iC, iP}, 5000, nil)
	sel := algebra.NewSelect(hosp, &algebra.CmpAV{A: hD, Op: sql.OpEq, V: sql.StringValue("stroke")}, 0.1)
	join := algebra.NewJoin(sel, ins, &algebra.CmpAA{L: hS, Op: sql.OpEq, R: iC}, 0.0002)
	grp := algebra.NewGroupBy1(join, []algebra.Attr{hT}, sql.AggAvg, iP, false, 10)
	hav := algebra.NewSelect(grp, &algebra.CmpAV{A: iP, Op: sql.OpGt, V: sql.NumberValue(100), Agg: sql.AggAvg}, 0.5)
	return hav, map[string]algebra.Node{
		"hosp": hosp, "ins": ins, "sel": sel, "join": join, "grp": grp, "hav": hav,
	}
}

func exampleSystem() *System {
	return NewSystem(examplePolicy(), "H", "I", "U", "X", "Y", "Z")
}

func subjects(ss ...authz.Subject) []authz.Subject { return ss }

func equalSubjects(a, b []authz.Subject) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRequirementsRunningExample checks that, with all four schemes
// available, only the final HAVING selection needs plaintext (avg(P) is a
// Paillier ciphertext that cannot be compared).
func TestRequirementsRunningExample(t *testing.T) {
	root, nodes := examplePlan()
	reqs := Requirements(root, DefaultCapabilities())
	if !reqs[nodes["sel"]].Empty() {
		t.Errorf("selection reqs = %v, want none (deterministic equality)", reqs[nodes["sel"]])
	}
	if !reqs[nodes["join"]].Empty() {
		t.Errorf("join reqs = %v, want none", reqs[nodes["join"]])
	}
	if !reqs[nodes["grp"]].Empty() {
		t.Errorf("group-by reqs = %v, want none (Paillier avg)", reqs[nodes["grp"]])
	}
	if !reqs[nodes["hav"]].Equal(set(iP)) {
		t.Errorf("having reqs = %v, want {Ins.P}", reqs[nodes["hav"]])
	}
}

func TestRequirementsNoCrypto(t *testing.T) {
	root, nodes := examplePlan()
	reqs := Requirements(root, NoCrypto())
	if !reqs[nodes["sel"]].Equal(set(hD)) {
		t.Errorf("selection reqs = %v", reqs[nodes["sel"]])
	}
	if !reqs[nodes["join"]].Equal(set(hS, iC)) {
		t.Errorf("join reqs = %v", reqs[nodes["join"]])
	}
	if !reqs[nodes["grp"]].Equal(set(hT, iP)) {
		t.Errorf("group-by reqs = %v", reqs[nodes["grp"]])
	}
}

func TestRequirementsVariants(t *testing.T) {
	r := algebra.NewBase("R", "A1", []algebra.Attr{algebra.A("R", "a"), algebra.A("R", "b")}, 100, nil)
	caps := DefaultCapabilities()

	// LIKE always needs plaintext.
	like := algebra.NewSelect(r, &algebra.CmpAV{A: algebra.A("R", "a"), Op: sql.OpLike, V: sql.StringValue("x%")}, 0.5)
	if !Requirements(like, caps)[like].Has(algebra.A("R", "a")) {
		t.Errorf("LIKE should require plaintext")
	}

	// Range needs plaintext without OPE.
	rng := algebra.NewSelect(r, &algebra.CmpAV{A: algebra.A("R", "a"), Op: sql.OpGt, V: sql.NumberValue(1)}, 0.5)
	capsNoOPE := caps
	capsNoOPE.Range = false
	if !Requirements(rng, capsNoOPE)[rng].Has(algebra.A("R", "a")) {
		t.Errorf("range without OPE should require plaintext")
	}
	if !Requirements(rng, caps)[rng].Empty() {
		t.Errorf("range with OPE should not require plaintext")
	}

	// min/max outputs are OPE ciphertexts: a later range compare is fine
	// with OPE, and needs plaintext without it.
	g := algebra.NewGroupBy1(r, []algebra.Attr{algebra.A("R", "a")}, sql.AggMin, algebra.A("R", "b"), false, 10)
	cmp := algebra.NewSelect(g, &algebra.CmpAV{A: algebra.A("R", "b"), Op: sql.OpGt, V: sql.NumberValue(0), Agg: sql.AggMin}, 0.5)
	if !Requirements(cmp, caps)[cmp].Empty() {
		t.Errorf("min output compare with OPE should not require plaintext")
	}
	if !Requirements(cmp, capsNoOPE)[cmp].Has(algebra.A("R", "b")) {
		t.Errorf("min output compare without OPE should require plaintext")
	}

	// UDFs require plaintext inputs by default.
	u := algebra.NewUDF(r, "f", []algebra.Attr{algebra.A("R", "a")}, algebra.A("R", "a"))
	if !Requirements(u, caps)[u].Has(algebra.A("R", "a")) {
		t.Errorf("udf should require plaintext by default")
	}
	capsUDF := caps
	capsUDF.UDF = true
	if !Requirements(u, capsUDF)[u].Empty() {
		t.Errorf("udf with encrypted support should not require plaintext")
	}
}

// TestFigure6Candidates checks the candidate sets Λ of Figure 6.
func TestFigure6Candidates(t *testing.T) {
	sys := exampleSystem()
	root, nodes := examplePlan()
	an := sys.Analyze(root, nil)

	cases := map[string][]authz.Subject{
		"sel":  subjects("H", "I", "U", "X", "Y", "Z"),
		"join": subjects("H", "U", "X", "Y", "Z"),
		"grp":  subjects("H", "U", "X", "Y", "Z"),
		"hav":  subjects("U", "Y"),
	}
	for name, want := range cases {
		got := an.Candidates[nodes[name]]
		if !equalSubjects(got, want) {
			t.Errorf("Λ(%s) = %v, want %v", name, got, want)
		}
	}
	if err := an.Feasible(); err != nil {
		t.Errorf("plan should be feasible: %v", err)
	}
}

// TestFigure6MinViews checks the minimum required view profiles on the arcs
// of Figure 6.
func TestFigure6MinViews(t *testing.T) {
	sys := exampleSystem()
	root, nodes := examplePlan()
	an := sys.Analyze(root, nil)

	// Min view over Hosp for the selection: SDT all encrypted.
	mv := an.MinViews[nodes["sel"]][0]
	if !mv.VE.Equal(set(hS, hD, hT)) || !mv.VP.Empty() {
		t.Errorf("min view over Hosp = %v", mv)
	}
	// Min view over Ins for the join: CP all encrypted.
	mvIns := an.MinViews[nodes["join"]][1]
	if !mvIns.VE.Equal(set(iC, iP)) || !mvIns.VP.Empty() {
		t.Errorf("min view over Ins = %v", mvIns)
	}
	// Min view over the group-by result for the final selection: P decrypted.
	mvHav := an.MinViews[nodes["hav"]][0]
	if !mvHav.VP.Equal(set(iP)) || !mvHav.VE.Equal(set(hT)) {
		t.Errorf("min view for having = %v", mvHav)
	}
	// Result profile of the final selection: avg(P) implicit plaintext.
	res := an.MinResult[nodes["hav"]]
	if !res.IP.Equal(set(iP)) || !res.IE.Equal(set(hD, hT)) {
		t.Errorf("final result profile = %v", res)
	}
}

// TestFigure7aExtension reproduces the minimally extended plan of
// Figure 7(a): σD→H, ⋈→X, γ→X, σavg→Y.
func TestFigure7aExtension(t *testing.T) {
	sys := exampleSystem()
	root, nodes := examplePlan()
	an := sys.Analyze(root, nil)

	lambda := Assignment{
		nodes["sel"]: "H", nodes["join"]: "X", nodes["grp"]: "X", nodes["hav"]: "Y",
	}
	ext, err := sys.Extend(an, lambda)
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}

	// Collect the encryption and decryption operations.
	encOps := map[string]authz.Subject{}
	decOps := map[string]authz.Subject{}
	algebra.PostOrder(ext.Root, func(n algebra.Node) {
		switch x := n.(type) {
		case *algebra.Encrypt:
			encOps[set(x.Attrs...).String()] = ext.Assign[n]
		case *algebra.Decrypt:
			decOps[set(x.Attrs...).String()] = ext.Assign[n]
		}
	})
	// S encrypted by H (before the join at X); C and P encrypted by I.
	if got := encOps[set(hS).String()]; got != "H" {
		t.Errorf("S encrypted by %q, want H (ops: %v)", got, encOps)
	}
	if got := encOps[set(iC, iP).String()]; got != "I" {
		t.Errorf("CP encrypted by %q, want I (ops: %v)", got, encOps)
	}
	// avg(P) decrypted by Y before the final selection.
	if got := decOps[set(iP).String()]; got != "Y" {
		t.Errorf("P decrypted by %q, want Y (ops: %v)", got, decOps)
	}
	if len(encOps) != 2 || len(decOps) != 1 {
		t.Errorf("enc ops = %v, dec ops = %v", encOps, decOps)
	}

	// Keys (Definition 6.1): A = {SC, P} → kSC to H and I, kP to I and Y.
	if len(ext.Keys) != 2 {
		t.Fatalf("keys = %+v", ext.Keys)
	}
	byID := map[string]Key{}
	for _, k := range ext.Keys {
		byID[k.ID] = k
	}
	kSC, ok := byID["kSC"] // sorted attribute order: Hosp.S before Ins.C
	if !ok {
		t.Fatalf("missing join key, have %v", byID)
	}
	if !kSC.Attrs.Equal(set(hS, iC)) || !equalSubjects(kSC.Holders, subjects("H", "I")) {
		t.Errorf("kSC = %+v", kSC)
	}
	kP, ok := byID["kP"]
	if !ok || !kP.Attrs.Equal(set(iP)) || !equalSubjects(kP.Holders, subjects("I", "Y")) {
		t.Errorf("kP = %+v", kP)
	}

	// Schemes: S and C deterministic (equality join); P Paillier (avg).
	if ext.Schemes[hS] != algebra.SchemeDeterministic || ext.Schemes[iC] != algebra.SchemeDeterministic {
		t.Errorf("join schemes = %v / %v", ext.Schemes[hS], ext.Schemes[iC])
	}
	if ext.Schemes[iP] != algebra.SchemePaillier {
		t.Errorf("P scheme = %v", ext.Schemes[iP])
	}

	// The produced assignment must be authorized (Theorem 5.3 i).
	if err := sys.CheckAssignment(ext.Root, ext.Assign); err != nil {
		t.Errorf("CheckAssignment: %v", err)
	}
	if err := CheckPlaintextAvailability(ext.Root, an.Reqs, ext.Source); err != nil {
		t.Errorf("CheckPlaintextAvailability: %v", err)
	}
}

// TestFigure7bExtension reproduces Figure 7(b): σD→H, ⋈→Z, γ→Z, σavg→Y.
// D is encrypted before the selection (Z, downstream, may only see D
// encrypted, and the selection leaves an implicit trace on D); P is
// encrypted by I for Z.
func TestFigure7bExtension(t *testing.T) {
	sys := exampleSystem()
	root, nodes := examplePlan()
	an := sys.Analyze(root, nil)

	lambda := Assignment{
		nodes["sel"]: "H", nodes["join"]: "Z", nodes["grp"]: "Z", nodes["hav"]: "Y",
	}
	ext, err := sys.Extend(an, lambda)
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}

	encOps := map[string]authz.Subject{}
	algebra.PostOrder(ext.Root, func(n algebra.Node) {
		if x, ok := n.(*algebra.Encrypt); ok {
			encOps[set(x.Attrs...).String()] = ext.Assign[n]
		}
	})
	// D encrypted by H before the selection (the leaf's authority performs
	// it); P encrypted by I.
	if got := encOps[set(hD).String()]; got != "H" {
		t.Errorf("D encrypted by %q (ops: %v)", got, encOps)
	}
	if got := encOps[set(iP).String()]; got != "I" {
		t.Errorf("P encrypted by %q (ops: %v)", got, encOps)
	}
	if len(encOps) != 2 {
		t.Errorf("enc ops = %v", encOps)
	}

	// Keys: A = {D, P}; kD to H only, kP to I and Y.
	byID := map[string]Key{}
	for _, k := range ext.Keys {
		byID[k.ID] = k
	}
	if len(ext.Keys) != 2 {
		t.Fatalf("keys = %+v", ext.Keys)
	}
	kD := byID["kD"]
	if !kD.Attrs.Equal(set(hD)) || !equalSubjects(kD.Holders, subjects("H")) {
		t.Errorf("kD = %+v", kD)
	}
	kP := byID["kP"]
	if !kP.Attrs.Equal(set(iP)) || !equalSubjects(kP.Holders, subjects("I", "Y")) {
		t.Errorf("kP = %+v", kP)
	}

	// D is compared for equality while encrypted: deterministic scheme.
	if ext.Schemes[hD] != algebra.SchemeDeterministic {
		t.Errorf("D scheme = %v", ext.Schemes[hD])
	}

	if err := sys.CheckAssignment(ext.Root, ext.Assign); err != nil {
		t.Errorf("CheckAssignment: %v", err)
	}
}

// TestExtendAllAtUser: assigning everything to the user U (plaintext
// authorized on all query attributes) must inject no encryption at all.
func TestExtendAllAtUser(t *testing.T) {
	sys := exampleSystem()
	root, nodes := examplePlan()
	an := sys.Analyze(root, nil)
	lambda := Assignment{
		nodes["sel"]: "U", nodes["join"]: "U", nodes["grp"]: "U", nodes["hav"]: "U",
	}
	ext, err := sys.Extend(an, lambda)
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if n := algebra.CountNodes(ext.Root); n != algebra.CountNodes(root) {
		t.Errorf("expected no injected operations, got %d extra", n-algebra.CountNodes(root))
	}
	if len(ext.Keys) != 0 {
		t.Errorf("keys = %v, want none", ext.Keys)
	}
	if err := sys.CheckAssignment(ext.Root, ext.Assign); err != nil {
		t.Errorf("CheckAssignment: %v", err)
	}
}

func TestExtendRejectsNonCandidate(t *testing.T) {
	sys := exampleSystem()
	root, nodes := examplePlan()
	an := sys.Analyze(root, nil)
	lambda := Assignment{
		nodes["sel"]: "H", nodes["join"]: "I", nodes["grp"]: "U", nodes["hav"]: "U",
	}
	if _, err := sys.Extend(an, lambda); err == nil {
		t.Errorf("I is not a candidate for the join; Extend must refuse")
	}
	delete(lambda, nodes["join"])
	if _, err := sys.Extend(an, lambda); err == nil {
		t.Errorf("missing assignee must be refused")
	}
}

func TestInfeasiblePlan(t *testing.T) {
	// A policy under which nobody can see B: any plan touching B in
	// plaintext has an empty candidate set.
	pol := authz.NewPolicy()
	pol.MustGrant("R", "U", []string{"a"}, nil)
	sys := NewSystem(pol, "U")
	rb := algebra.A("R", "b")
	base := algebra.NewBase("R", "AUTH", []algebra.Attr{algebra.A("R", "a"), rb}, 10, nil)
	sel := algebra.NewSelect(base, &algebra.CmpAV{A: rb, Op: sql.OpLike, V: sql.StringValue("x%")}, 0.5)
	an := sys.Analyze(sel, nil)
	if err := an.Feasible(); err == nil {
		t.Errorf("plan should be infeasible")
	}
}

func TestCheckUserAccess(t *testing.T) {
	sys := exampleSystem()
	root, _ := examplePlan()
	if err := sys.CheckUserAccess("U", root); err != nil {
		t.Errorf("U should access the query inputs: %v", err)
	}
	// X has no plaintext view of S: it cannot be the requesting user.
	if err := sys.CheckUserAccess("X", root); err == nil {
		t.Errorf("X should be rejected as requesting user")
	}
}

func TestAnalysisFormat(t *testing.T) {
	sys := exampleSystem()
	root, nodes := examplePlan()
	an := sys.Analyze(root, nil)
	out := an.Format(nil)
	if !strings.Contains(out, "Λ={U,Y}") {
		t.Errorf("format missing candidates:\n%s", out)
	}
	lambda := Assignment{
		nodes["sel"]: "H", nodes["join"]: "X", nodes["grp"]: "X", nodes["hav"]: "Y",
	}
	ext, err := sys.Extend(an, lambda)
	if err != nil {
		t.Fatal(err)
	}
	out = an.Format(ext)
	if !strings.Contains(out, "@X") || !strings.Contains(out, "encrypt[") {
		t.Errorf("extended format:\n%s", out)
	}
}

func TestMinimumRequiredViewDefinition(t *testing.T) {
	// Definition 5.2: everything outside Ap encrypted, Ap decrypted.
	ra, rb := algebra.A("R", "a"), algebra.A("R", "b")
	p := profile.ForBase([]algebra.Attr{ra, rb})
	mv := MinimumRequiredView(p, set(ra))
	if !mv.VP.Equal(set(ra)) || !mv.VE.Equal(set(rb)) {
		t.Errorf("min view = %v", mv)
	}
	// An Ap attribute arriving encrypted gets decrypted.
	pe := profile.Encrypt(p, set(ra, rb))
	mv2 := MinimumRequiredView(pe, set(ra))
	if !mv2.VP.Equal(set(ra)) || !mv2.VE.Equal(set(rb)) {
		t.Errorf("min view from encrypted = %v", mv2)
	}
}

// TestFederatedPolicySource: the pipeline accepts a federation of
// per-authority sources (one published, one request-based) in place of a
// global policy repository, per Section 6's storage-independence remark.
func TestFederatedPolicySource(t *testing.T) {
	full := examplePolicy()

	// H publishes its Hosp rules; I answers authorization requests for Ins.
	ph := authz.NewPolicy()
	ph.MustGrant("Hosp", "H", []string{"S", "B", "D", "T"}, nil)
	ph.MustGrant("Hosp", "I", []string{"B"}, []string{"S", "D", "T"})
	ph.MustGrant("Hosp", "U", []string{"S", "D", "T"}, nil)
	ph.MustGrant("Hosp", "X", []string{"D", "T"}, []string{"S"})
	ph.MustGrant("Hosp", "Y", []string{"B", "D", "T"}, []string{"S"})
	ph.MustGrant("Hosp", "Z", []string{"S", "T"}, []string{"D"})
	ph.MustGrant("Hosp", authz.Any, []string{"D", "T"}, nil)
	ri := authz.NewRequester([]string{"Ins"}, func(rel string, s authz.Subject) *authz.Authorization {
		return full.Rule(rel, s)
	})
	fed := authz.NewFederation(ph, ri)

	sys := NewSystem(fed, "H", "I", "U", "X", "Y", "Z")
	root, nodes := examplePlan()
	an := sys.Analyze(root, nil)

	// Candidate sets match the global-repository analysis (Figure 6).
	want := map[string][]authz.Subject{
		"sel":  subjects("H", "I", "U", "X", "Y", "Z"),
		"join": subjects("H", "U", "X", "Y", "Z"),
		"grp":  subjects("H", "U", "X", "Y", "Z"),
		"hav":  subjects("U", "Y"),
	}
	for name, w := range want {
		if !equalSubjects(an.Candidates[nodes[name]], w) {
			t.Errorf("Λ(%s) = %v, want %v", name, an.Candidates[nodes[name]], w)
		}
	}
	if ri.Requests() == 0 {
		t.Errorf("the confidential authority was never consulted")
	}
	// Extension works identically.
	lambda := Assignment{nodes["sel"]: "H", nodes["join"]: "X", nodes["grp"]: "X", nodes["hav"]: "Y"}
	ext, err := sys.Extend(an, lambda)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckAssignment(ext.Root, ext.Assign); err != nil {
		t.Errorf("federated assignment check: %v", err)
	}
}
