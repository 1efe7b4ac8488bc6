package algebra

import (
	"strings"
	"testing"
	"testing/quick"

	"mpq/internal/sql"
)

func TestAttrSetOps(t *testing.T) {
	a, b, c := A("R", "a"), A("R", "b"), A("S", "a")
	s := NewAttrSet(a, b)
	u := NewAttrSet(b, c)

	if !s.Has(a) || s.Has(c) {
		t.Errorf("Has failed")
	}
	if got := s.Union(u); got.Len() != 3 {
		t.Errorf("Union = %v", got)
	}
	if got := s.Intersect(u); got.Len() != 1 || !got.Has(b) {
		t.Errorf("Intersect = %v", got)
	}
	if got := s.Diff(u); got.Len() != 1 || !got.Has(a) {
		t.Errorf("Diff = %v", got)
	}
	if !NewAttrSet(a).SubsetOf(s) || s.SubsetOf(u) {
		t.Errorf("SubsetOf failed")
	}
	if !s.Equal(NewAttrSet(b, a)) {
		t.Errorf("Equal failed")
	}
	clone := s.Clone()
	clone.Add(c)
	if s.Has(c) {
		t.Errorf("Clone is not independent")
	}
	if s.String() != "{R.a, R.b}" {
		t.Errorf("String = %q", s.String())
	}
}

func TestAttrSetPropertySubsetUnion(t *testing.T) {
	// s ⊆ s∪t and t ⊆ s∪t for arbitrary sets.
	f := func(xs, ys []uint8) bool {
		s, u := NewAttrSet(), NewAttrSet()
		for _, x := range xs {
			s.Add(A("R", string(rune('a'+x%16))))
		}
		for _, y := range ys {
			u.Add(A("R", string(rune('a'+y%16))))
		}
		un := s.Union(u)
		return s.SubsetOf(un) && u.SubsetOf(un) && un.Intersect(s).Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAttrSetUnionIntersectFresh: Union and Intersect pick an operand to
// clone or iterate by size, so they must give the same set in either
// operand order, and a result must never alias an operand.
func TestAttrSetUnionIntersectFresh(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		s, u := NewAttrSet(), NewAttrSet()
		for _, x := range xs {
			s.Add(A("R", string(rune('a'+x%16))))
		}
		for _, y := range ys {
			u.Add(A("R", string(rune('a'+y%16))))
		}
		sBefore, uBefore := s.Clone(), u.Clone()
		un, in := s.Union(u), s.Intersect(u)
		if !un.Equal(u.Union(s)) || !in.Equal(u.Intersect(s)) {
			return false
		}
		for _, res := range []AttrSet{un, in, u.Union(s), u.Intersect(s)} {
			res.Add(A("S", "new"))
			for a := range sBefore.All() {
				res.Remove(a)
			}
			for a := range uBefore.All() {
				res.Remove(a)
			}
		}
		return s.Equal(sBefore) && u.Equal(uBefore)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func exampleBase() (*Base, *Base) {
	hosp := NewBase("Hosp", "H",
		[]Attr{A("Hosp", "S"), A("Hosp", "D"), A("Hosp", "T")},
		1000, map[Attr]float64{A("Hosp", "S"): 11, A("Hosp", "D"): 20, A("Hosp", "T"): 20})
	ins := NewBase("Ins", "I",
		[]Attr{A("Ins", "C"), A("Ins", "P")},
		5000, map[Attr]float64{A("Ins", "C"): 11, A("Ins", "P"): 8})
	return hosp, ins
}

func examplePlan() Node {
	hosp, ins := exampleBase()
	sel := NewSelect(hosp, &CmpAV{A: A("Hosp", "D"), Op: sql.OpEq, V: sql.StringValue("stroke")}, 0.1)
	join := NewJoin(sel, ins, &CmpAA{L: A("Hosp", "S"), Op: sql.OpEq, R: A("Ins", "C")}, 1.0/5000)
	grp := NewGroupBy1(join, []Attr{A("Hosp", "T")}, sql.AggAvg, A("Ins", "P"), false, 10)
	hav := NewSelect(grp, &CmpAV{A: A("Ins", "P"), Op: sql.OpGt, V: sql.NumberValue(100), Agg: sql.AggAvg}, 0.5)
	return hav
}

func TestPlanSchemas(t *testing.T) {
	root := examplePlan()
	schema := root.Schema()
	if len(schema) != 2 {
		t.Fatalf("schema = %v", schema)
	}
	want := NewAttrSet(A("Hosp", "T"), A("Ins", "P"))
	if !SchemaSet(root).Equal(want) {
		t.Errorf("schema = %v, want %v", SchemaSet(root), want)
	}
}

func TestPlanStats(t *testing.T) {
	root := examplePlan()
	nodes := Nodes(root)
	if len(nodes) != 6 {
		t.Fatalf("nodes = %d, want 6", len(nodes))
	}
	// Selection keeps 10% of Hosp.
	var sel *Select
	for _, n := range nodes {
		if s, ok := n.(*Select); ok && sel == nil {
			sel = s
		}
	}
	if sel.Stats().Rows != 100 {
		t.Errorf("selection rows = %v, want 100", sel.Stats().Rows)
	}
	// Root: 10 groups halved by HAVING.
	if root.Stats().Rows != 5 {
		t.Errorf("root rows = %v, want 5", root.Stats().Rows)
	}
}

func TestStatsBytes(t *testing.T) {
	hosp, _ := exampleBase()
	st := hosp.Stats()
	if got := st.RowWidth(hosp.Schema()); got != 51 {
		t.Errorf("row width = %v, want 51", got)
	}
	if got := st.Bytes(hosp.Schema()); got != 51000 {
		t.Errorf("bytes = %v, want 51000", got)
	}
	// Unknown attribute falls back to the default width.
	if got := st.RowWidth([]Attr{A("Hosp", "unknown")}); got != DefaultWidth {
		t.Errorf("default width = %v", got)
	}
}

func TestGroupByCountStar(t *testing.T) {
	hosp, _ := exampleBase()
	g := NewGroupBy1(hosp, []Attr{A("Hosp", "D")}, sql.AggCount, Attr{}, true, 50)
	schema := g.Schema()
	if len(schema) != 2 || !IsSynthetic(schema[1]) {
		t.Fatalf("schema = %v", schema)
	}
	if g.Stats().Rows != 50 {
		t.Errorf("groups = %v", g.Stats().Rows)
	}
	// Group estimate is capped by input cardinality.
	g2 := NewGroupBy1(hosp, []Attr{A("Hosp", "D")}, sql.AggCount, Attr{}, true, 1e9)
	if g2.Stats().Rows != 1000 {
		t.Errorf("capped groups = %v", g2.Stats().Rows)
	}
}

func TestUDFSchema(t *testing.T) {
	hosp, _ := exampleBase()
	u := NewUDF(hosp, "risk", []Attr{A("Hosp", "S"), A("Hosp", "D")}, A("Hosp", "S"))
	// Schema: loses D (consumed), keeps S (output name) and T.
	want := NewAttrSet(A("Hosp", "S"), A("Hosp", "T"))
	if !SchemaSet(u).Equal(want) {
		t.Errorf("udf schema = %v, want %v", SchemaSet(u), want)
	}
}

func TestEncryptDecryptSchemaUnchanged(t *testing.T) {
	hosp, _ := exampleBase()
	e := NewEncrypt(hosp, []Attr{A("Hosp", "S")})
	d := NewDecrypt(e, []Attr{A("Hosp", "S")})
	if !SchemaSet(d).Equal(SchemaSet(hosp)) {
		t.Errorf("schema changed through encrypt/decrypt")
	}
	if d.Stats().Rows != hosp.Stats().Rows {
		t.Errorf("stats changed through encrypt/decrypt")
	}
}

func TestRebuildPreservesStructure(t *testing.T) {
	root := examplePlan()
	var rebuilt func(n Node) Node
	rebuilt = func(n Node) Node {
		ch := n.Children()
		nc := make([]Node, len(ch))
		for i, c := range ch {
			nc[i] = rebuilt(c)
		}
		return Rebuild(n, nc)
	}
	r2 := rebuilt(root)
	if Format(root, nil) != Format(r2, nil) {
		t.Errorf("rebuild changed the plan:\n%s\nvs\n%s", Format(root, nil), Format(r2, nil))
	}
}

func TestWalkOrders(t *testing.T) {
	root := examplePlan()
	var post, pre []string
	PostOrder(root, func(n Node) { post = append(post, n.Op()) })
	PreOrder(root, func(n Node) { pre = append(pre, n.Op()) })
	if len(post) != len(pre) {
		t.Fatalf("visit count mismatch")
	}
	if post[len(post)-1] != root.Op() || pre[0] != root.Op() {
		t.Errorf("root not in expected position")
	}
	if CountNodes(root) != len(post) {
		t.Errorf("CountNodes = %d, want %d", CountNodes(root), len(post))
	}
}

func TestIsDescendant(t *testing.T) {
	root := examplePlan()
	nodes := Nodes(root)
	for _, n := range nodes {
		if !IsDescendant(root, n) {
			t.Errorf("node %s not a descendant of the root", n.Op())
		}
	}
	leaf := nodes[0]
	if IsDescendant(leaf, root) {
		t.Errorf("root is a descendant of a leaf")
	}
}

func TestPredHelpers(t *testing.T) {
	p := And(
		&CmpAV{A: A("R", "a"), Op: sql.OpEq, V: sql.NumberValue(1)},
		&CmpAA{L: A("R", "b"), Op: sql.OpEq, R: A("S", "c")},
		And(&CmpAV{A: A("R", "d"), Op: sql.OpGt, V: sql.NumberValue(2)}),
	)
	conjs := Conjuncts(p)
	if len(conjs) != 3 {
		t.Fatalf("conjuncts = %d, want 3", len(conjs))
	}
	pairs := AttrPairs(p)
	if len(pairs) != 1 || pairs[0] != [2]Attr{A("R", "b"), A("S", "c")} {
		t.Errorf("pairs = %v", pairs)
	}
	va := ValueAttrs(p)
	if !va.Equal(NewAttrSet(A("R", "a"), A("R", "d"))) {
		t.Errorf("value attrs = %v", va)
	}
	if EqualityOnly(p) {
		t.Errorf("EqualityOnly should be false (has >)")
	}
	if And() != nil {
		t.Errorf("And() should be nil")
	}
	if And(conjs[0]) != conjs[0] {
		t.Errorf("And(x) should unwrap")
	}
}

func TestPredAttrsAndString(t *testing.T) {
	or := &OrPred{Preds: []Pred{
		&CmpAV{A: A("R", "a"), Op: sql.OpEq, V: sql.StringValue("x")},
		&NotPred{Inner: &CmpAV{A: A("R", "b"), Op: sql.OpLt, V: sql.NumberValue(3)}},
	}}
	if !or.Attrs().Equal(NewAttrSet(A("R", "a"), A("R", "b"))) {
		t.Errorf("or attrs = %v", or.Attrs())
	}
	if !strings.Contains(or.String(), "OR") || !strings.Contains(or.String(), "NOT") {
		t.Errorf("or string = %q", or.String())
	}
}

func TestCatalogResolve(t *testing.T) {
	cat := NewCatalog()
	cat.Add(&Relation{Name: "Hosp", Authority: "H", Rows: 100, Columns: []Column{
		{Name: "S", Type: TString, Width: 11},
		{Name: "D", Type: TString, Width: 20},
	}})
	cat.Add(&Relation{Name: "Ins", Authority: "I", Rows: 200, Columns: []Column{
		{Name: "C", Type: TString, Width: 11},
		{Name: "D", Type: TString, Width: 4},
	}})

	a, err := cat.Resolve("S", []string{"Hosp", "Ins"})
	if err != nil || a != A("Hosp", "S") {
		t.Errorf("Resolve(S) = %v, %v", a, err)
	}
	if _, err := cat.Resolve("D", []string{"Hosp", "Ins"}); err == nil {
		t.Errorf("Resolve(D) should be ambiguous")
	}
	if _, err := cat.Resolve("Z", []string{"Hosp"}); err == nil {
		t.Errorf("Resolve(Z) should fail")
	}
	if _, err := cat.Resolve("S", []string{"Nope"}); err == nil {
		t.Errorf("Resolve over unknown relation should fail")
	}
	if got := cat.Names(); len(got) != 2 || got[0] != "Hosp" {
		t.Errorf("Names = %v", got)
	}
	r := cat.Relation("Hosp")
	if r.Column("S") == nil || r.Column("nope") != nil {
		t.Errorf("Column lookup failed")
	}
	if len(r.Attrs()) != 2 || r.Attrs()[0] != A("Hosp", "S") {
		t.Errorf("Attrs = %v", r.Attrs())
	}
	if w := r.Widths(); w[A("Hosp", "D")] != 20 {
		t.Errorf("Widths = %v", w)
	}
}

func TestFormatAnnotate(t *testing.T) {
	root := examplePlan()
	out := Format(root, func(n Node) string {
		if _, ok := n.(*Base); ok {
			return "LEAF"
		}
		return ""
	})
	if !strings.Contains(out, "LEAF") || !strings.Contains(out, "γ[") {
		t.Errorf("format output:\n%s", out)
	}
}

func TestColTypeString(t *testing.T) {
	for ct, want := range map[ColType]string{TInt: "int", TFloat: "float", TString: "string", TDate: "date"} {
		if ct.String() != want {
			t.Errorf("%v != %s", ct, want)
		}
	}
}

func TestStoredBase(t *testing.T) {
	ra, rb := A("R", "a"), A("R", "b")
	b := NewStoredBase("R", "AUTH", "W", []Attr{ra, rb}, []Attr{ra}, "kS", 100, nil)
	if b.Host() != "W" {
		t.Errorf("Host = %q", b.Host())
	}
	if !b.EncSet().Equal(NewAttrSet(ra)) {
		t.Errorf("EncSet = %v", b.EncSet())
	}
	// EncAttrs outside the projection are ignored.
	b2 := NewStoredBase("R", "AUTH", "W", []Attr{rb}, []Attr{ra}, "kS", 100, nil)
	if !b2.EncSet().Empty() {
		t.Errorf("projected-away EncAttrs should not appear: %v", b2.EncSet())
	}
	// A plain base hosts at its authority and stores nothing encrypted.
	p := NewBase("R", "AUTH", []Attr{ra}, 10, nil)
	if p.Host() != "AUTH" || !p.EncSet().Empty() {
		t.Errorf("plain base: host=%q enc=%v", p.Host(), p.EncSet())
	}
}

func TestProjectAndProductNodes(t *testing.T) {
	hosp, ins := exampleBase()
	proj := NewProject(hosp, []Attr{A("Hosp", "S")})
	if len(proj.Children()) != 1 || len(proj.Schema()) != 1 {
		t.Errorf("project shape wrong")
	}
	if proj.Stats().Rows != hosp.Stats().Rows {
		t.Errorf("projection changed cardinality")
	}
	if !strings.Contains(proj.Op(), "π[") {
		t.Errorf("project op = %q", proj.Op())
	}
	prod := NewProduct(proj, ins)
	if prod.Stats().Rows != 1000*5000 {
		t.Errorf("product rows = %v", prod.Stats().Rows)
	}
	if len(prod.Children()) != 2 || len(prod.Schema()) != 3 {
		t.Errorf("product shape wrong")
	}
	if prod.Op() != "×" {
		t.Errorf("product op = %q", prod.Op())
	}
}

func TestGroupByAggHelpers(t *testing.T) {
	hosp, _ := exampleBase()
	g := NewGroupBy(hosp, []Attr{A("Hosp", "D")}, []AggSpec{
		{Func: sql.AggSum, Attr: A("Hosp", "S")},
		{Func: sql.AggCount, Star: true},
	}, 10)
	if !g.AggAttrs().Equal(NewAttrSet(A("Hosp", "S"))) {
		t.Errorf("AggAttrs = %v", g.AggAttrs())
	}
	if got := g.Aggs[1].Out(); !IsSynthetic(got) {
		t.Errorf("count(*) out = %v", got)
	}
	if g.Aggs[1].String() != "count(*)" || !strings.Contains(g.Aggs[0].String(), "sum(") {
		t.Errorf("agg strings: %q %q", g.Aggs[0].String(), g.Aggs[1].String())
	}
	if !strings.Contains(g.Op(), "count(*)") {
		t.Errorf("op = %q", g.Op())
	}
}

func TestAttrOrderingAndStrings(t *testing.T) {
	a, b := A("R", "x"), A("S", "a")
	if !a.Less(b) || b.Less(a) {
		t.Errorf("Less should order by relation first")
	}
	if a.String() != "R.x" {
		t.Errorf("String = %q", a.String())
	}
	bare := Attr{Name: "n"}
	if bare.String() != "n" {
		t.Errorf("unqualified String = %q", bare.String())
	}
	if !A("R", "a").Less(A("R", "b")) {
		t.Errorf("Less within a relation")
	}
}

func TestCatalogTypesOf(t *testing.T) {
	cat := NewCatalog()
	cat.Add(&Relation{Name: "R", Authority: "A", Columns: []Column{
		{Name: "a", Type: TInt}, {Name: "b", Type: TString},
	}})
	types := cat.TypesOf()
	if types[A("R", "a")] != TInt || types[A("R", "b")] != TString {
		t.Errorf("TypesOf = %v", types)
	}
}

func TestEncryptDecryptOpStrings(t *testing.T) {
	hosp, _ := exampleBase()
	e := NewEncrypt(hosp, []Attr{A("Hosp", "S")})
	e.Schemes[A("Hosp", "S")] = SchemeOPE
	if !strings.Contains(e.Op(), "ope") {
		t.Errorf("encrypt op = %q", e.Op())
	}
	d := NewDecrypt(e, []Attr{A("Hosp", "S")})
	if !strings.Contains(d.Op(), "decrypt[") {
		t.Errorf("decrypt op = %q", d.Op())
	}
	if d.Stats().Rows != hosp.Stats().Rows || len(d.Children()) != 1 {
		t.Errorf("decrypt plumbing wrong")
	}
}

func TestDOTRendering(t *testing.T) {
	hosp, _ := exampleBase()
	e := NewEncrypt(hosp, []Attr{A("Hosp", "S")})
	d := NewDecrypt(e, []Attr{A("Hosp", "S")})
	out := DOT(d, func(n Node) []string {
		if _, ok := n.(*Base); ok {
			return []string{"@H", `v: "SDT"`}
		}
		return nil
	})
	for _, want := range []string{"digraph plan", "fillcolor=gray80", "peripheries=2",
		"lightyellow", "n0 -> n1", `\"SDT\"`} {
		if !strings.Contains(out, want) {
			t.Errorf("dot output missing %q:\n%s", want, out)
		}
	}
	// Deterministic numbering across calls.
	if out != DOT(d, func(n Node) []string {
		if _, ok := n.(*Base); ok {
			return []string{"@H", `v: "SDT"`}
		}
		return nil
	}) {
		t.Errorf("dot output not deterministic")
	}
}
