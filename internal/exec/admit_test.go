package exec

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/crypto"
	"mpq/internal/sql"
)

// TestInadmissibleComparisonsFailAtBuild: whether a comparison can be
// evaluated over its operands is fixed by the extended plan (Sec. 5), so an
// inadmissible one fails Build over an empty table exactly as over rows in
// the plain, dictionary and cipher-dictionary layouts, in a selection and
// in a join's residual. Each admissible counterpart runs.
func TestInadmissibleComparisonsFailAtBuild(t *testing.T) {
	ring, err := crypto.NewKeyRing("k", testPaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	s, u := algebra.A("R", "s"), algebra.A("R", "u")   // strings
	n, m := algebra.A("R", "n"), algebra.A("R", "m")   // ints
	rk, tk := algebra.A("R", "k"), algebra.A("T", "k") // plaintext join keys
	attrs := []algebra.Attr{s, u, n, m, rk}
	det, rnd, ope, phe := algebra.SchemeDeterministic, algebra.SchemeRandom, algebra.SchemeOPE, algebra.SchemePaillier
	enc := func(sc algebra.Scheme, v Value) *Value {
		c, err := EncryptValue(ring, sc, v)
		if err != nil {
			t.Fatal(err)
		}
		return &c
	}
	str, num, plainA := sql.StringValue("a"), sql.NumberValue(1), String("a")
	ordered := []sql.CompareOp{sql.OpLt, sql.OpLeq, sql.OpGt, sql.OpGeq}
	every := append([]sql.CompareOp{sql.OpEq, sql.OpNeq, sql.OpLike}, ordered...)

	type tc struct {
		name    string
		schemes map[algebra.Attr]algebra.Scheme
		pred    algebra.Pred
		konst   *Value // the constant dispatched for an AV case; nil for none
		want    string // the build error names this; "" for an admissible case
	}
	var cases []tc
	av := func(name string, sc map[algebra.Attr]algebra.Scheme, a algebra.Attr, op sql.CompareOp, v sql.Value, k *Value, want string) {
		cases = append(cases, tc{name, sc, &algebra.CmpAV{A: a, Op: op, V: v}, k, want})
	}
	aa := func(name string, sc map[algebra.Attr]algebra.Scheme, l algebra.Attr, op sql.CompareOp, r algebra.Attr, want string) {
		cases = append(cases, tc{name, sc, &algebra.CmpAA{L: l, Op: op, R: r}, nil, want})
	}
	const refused, mixed = "cannot evaluate", "comparing"
	for _, op := range append(ordered, sql.OpLike) {
		av("AV/det/"+op.String(), map[algebra.Attr]algebra.Scheme{s: det}, s, op, str, enc(det, String("a")), refused)
		aa("AA/det/"+op.String(), map[algebra.Attr]algebra.Scheme{s: det, u: det}, s, op, u, refused)
	}
	for _, op := range every {
		av("AV/rnd/"+op.String(), map[algebra.Attr]algebra.Scheme{s: rnd}, s, op, str, enc(rnd, String("a")), refused)
		aa("AA/rnd/"+op.String(), map[algebra.Attr]algebra.Scheme{s: rnd, u: rnd}, s, op, u, refused)
		av("AV/paillier/"+op.String(), map[algebra.Attr]algebra.Scheme{n: phe}, n, op, num, enc(phe, Int(1)), refused)
		aa("AA/paillier/"+op.String(), map[algebra.Attr]algebra.Scheme{n: phe, m: phe}, n, op, m, refused)
	}
	av("AV/ope/LIKE", map[algebra.Attr]algebra.Scheme{n: ope}, n, sql.OpLike, num, enc(ope, Int(1)), refused)
	aa("AA/ope/LIKE", map[algebra.Attr]algebra.Scheme{n: ope, m: ope}, n, sql.OpLike, m, refused)
	av("AV/undispatched", map[algebra.Attr]algebra.Scheme{s: det}, s, sql.OpEq, str, nil, "not dispatched")
	av("AV/plaintext-constant", map[algebra.Attr]algebra.Scheme{s: det}, s, sql.OpEq, str, &plainA, mixed)
	aa("AA/det-vs-ope", map[algebra.Attr]algebra.Scheme{n: det, m: ope}, n, sql.OpEq, m, mixed)
	aa("AA/plain-vs-det", map[algebra.Attr]algebra.Scheme{u: det}, s, sql.OpEq, u, mixed)
	// The admissible counterparts.
	for _, op := range []sql.CompareOp{sql.OpEq, sql.OpNeq} {
		av("AV/det/"+op.String(), map[algebra.Attr]algebra.Scheme{s: det}, s, op, str, enc(det, String("a")), "")
		aa("AA/det/"+op.String(), map[algebra.Attr]algebra.Scheme{s: det, u: det}, s, op, u, "")
	}
	for _, op := range append(ordered, sql.OpEq) {
		av("AV/ope/"+op.String(), map[algebra.Attr]algebra.Scheme{n: ope}, n, op, num, enc(ope, Int(1)), "")
		aa("AA/ope/"+op.String(), map[algebra.Attr]algebra.Scheme{n: ope, m: ope}, n, op, m, "")
	}
	av("AV/plain/LIKE", nil, s, sql.OpLike, sql.StringValue("a%"), nil, "")
	aa("AA/plain/<", nil, n, sql.OpLt, m, "")

	// table holds rows of R: with few distinct strings, s and u are
	// dictionaries under the dict policy and det-encrypt to cipher
	// dictionaries.
	table := func(rows int) *Table {
		tbl := NewTable(attrs)
		for i := 0; i < rows; i++ {
			tbl.Append([]Value{String([]string{"a", "b"}[i%2]), String("a"), Int(int64(i)), Int(int64(i % 3)), Int(0)})
		}
		return tbl
	}
	layouts := []struct {
		name string
		rows int
		dict bool
	}{{"empty", 0, false}, {"plain", 8, false}, {"dict", 8, true}}
	for _, lay := range layouts {
		for _, join := range []bool{false, true} {
			for _, c := range cases {
				name := fmt.Sprintf("%s/join=%v/%s", lay.name, join, c.name)
				t.Run(name, func(t *testing.T) {
					forceDict(t, lay.dict)
					e := NewExecutor()
					e.Keys.Add(ring)
					e.Tables["R"] = table(lay.rows)
					kt := NewTable([]algebra.Attr{tk})
					kt.Append([]Value{Int(0)})
					e.Tables["T"] = kt
					var child algebra.Node = algebra.NewBase("R", "A", attrs, 8, nil)
					if len(c.schemes) > 0 {
						var encAttrs []algebra.Attr
						for _, a := range attrs {
							if c.schemes[a] != "" {
								encAttrs = append(encAttrs, a)
							}
						}
						x := algebra.NewEncrypt(child, encAttrs)
						for a, sc := range c.schemes {
							x.Schemes[a], x.KeyIDs[a] = sc, "k"
						}
						child = x
					}
					if av, ok := c.pred.(*algebra.CmpAV); ok && c.konst != nil {
						e.Consts = ConstCache{av: *c.konst}
					}
					var plan algebra.Node = algebra.NewSelect(child, c.pred, 0.5)
					if join {
						plan = algebra.NewJoin(child, algebra.NewBase("T", "A", []algebra.Attr{tk}, 1, nil),
							algebra.And(&algebra.CmpAA{L: rk, Op: sql.OpEq, R: tk}, c.pred), 0.5)
					}
					op, err := e.Build(plan)
					if c.want != "" {
						if err == nil || !strings.Contains(err.Error(), c.want) {
							t.Fatalf("%s: build gave %v, want an error naming %q", c.pred, err, c.want)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if _, err := Drain(op); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestLayoutMustMatchDeclaredForm: a column arriving in another form than
// the plan declares for it fails the query, in either direction and in
// each layout, even where the comparison itself is admissible.
func TestLayoutMustMatchDeclaredForm(t *testing.T) {
	ring, err := crypto.NewKeyRing("k", testPaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	s, v, c := algebra.A("R", "s"), algebra.A("R", "v"), algebra.A("R", "c")
	attrs := []algebra.Attr{s, v, c}
	detA, err := EncryptValue(ring, algebra.SchemeDeterministic, String("a"))
	if err != nil {
		t.Fatal(err)
	}
	// s and v hold plaintext, c det ciphertexts.
	table := func() *Table {
		tbl := NewTable(attrs)
		for i := 0; i < 8; i++ {
			ct, err := EncryptValue(ring, algebra.SchemeDeterministic, Int(int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			tbl.Append([]Value{String([]string{"a", "b"}[i%2]), String("a"), ct})
		}
		return tbl
	}
	declared := algebra.NewStoredBase("R", "A", "", attrs, []algebra.Attr{s, v}, "k", 8, nil)
	undeclared := algebra.NewBase("R", "A", attrs, 8, nil)
	sEqA := &algebra.CmpAV{A: s, Op: sql.OpEq, V: sql.StringValue("a")}
	cases := []struct {
		name  string
		plan  algebra.Node
		konst bool // dispatch det('a') for sEqA
		want  string
	}{
		{"AV/plaintext-declared-det", algebra.NewSelect(declared, sEqA, 0.5), true, "arrives as plaintext where the plan declares det ciphertext"},
		{"AA/plaintext-declared-det", algebra.NewSelect(declared, &algebra.CmpAA{L: s, Op: sql.OpEq, R: v}, 0.5), false, "arrives as plaintext where the plan declares det ciphertext"},
		{"AV/det-declared-plaintext", algebra.NewSelect(undeclared, &algebra.CmpAV{A: c, Op: sql.OpEq, V: sql.NumberValue(1)}, 0.5), false, "arrives as det ciphertext where the plan declares plaintext"},
		{"AA/det-declared-plaintext", algebra.NewSelect(undeclared, &algebra.CmpAA{L: c, Op: sql.OpEq, R: c}, 0.5), false, "arrives as det ciphertext where the plan declares plaintext"},
	}
	for _, dict := range []bool{false, true} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("dict=%v/%s", dict, tc.name), func(t *testing.T) {
				forceDict(t, dict)
				e := NewExecutor()
				e.Keys.Add(ring)
				e.Tables["R"] = table()
				if tc.konst {
					e.Consts = ConstCache{sEqA: detA}
				}
				if _, err := e.Run(tc.plan); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("run gave %v, want an error naming %q", err, tc.want)
				}
			})
		}
	}
}

// TestIntColumnAgainstFloatLiteral: an int column compared with a numeric
// literal keeps exactly the rows where float64(x) op literal holds, on both
// sides of 2^53, where float64 rounds, and for fractional and
// out-of-range literals.
func TestIntColumnAgainstFloatLiteral(t *testing.T) {
	x := algebra.A("R", "x")
	const p53 = 1 << 53
	xs := []int64{math.MinInt64, -p53 - 3, -p53 - 1, -p53, -3, -1, 0, 1, 2, 3, p53 - 1, p53, p53 + 1, p53 + 2, p53 + 3, math.MaxInt64}
	cells := make([]Value, len(xs))
	for i, v := range xs {
		cells[i] = Int(v)
	}
	b := &Batch{Cols: []Column{NewColumn(cells)}, N: len(xs)}
	if b.Cols[0].Kind != ColInt {
		t.Fatalf("column is %v, want ColInt", b.Cols[0].Kind)
	}
	e := NewExecutor()
	for _, lit := range []float64{0, math.Copysign(0, -1), 2, 1.5, -1.5, p53, p53 + 2, p53 + 4, -p53, -p53 - 2, 1e19, -1e19} {
		for _, op := range []sql.CompareOp{sql.OpEq, sql.OpNeq, sql.OpLt, sql.OpLeq, sql.OpGt, sql.OpGeq} {
			pred, err := e.compileColPred(&algebra.CmpAV{A: x, Op: op, V: sql.NumberValue(lit)}, plainResolver([]algebra.Attr{x}, nil, nil))
			if err != nil {
				t.Fatal(err)
			}
			sel := make([]int32, len(xs))
			for i := range sel {
				sel[i] = int32(i)
			}
			got, err := pred(b, sel)
			if err != nil {
				t.Fatal(err)
			}
			var want []int32
			for i, v := range xs {
				if opHolds(op, cmp3(float64(v), lit)) {
					want = append(want, int32(i))
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("x %s %v keeps rows %v, want %v", op, lit, got, want)
			}
		}
	}
}

// TestNullComparisonInEveryLayout: a comparison that meets a NULL fails the
// query with exactly "exec: NULL comparison" in every column layout, both
// attribute against constant and attribute against attribute, whether the
// NULL's batch is the first or a later one; a conjunct that drops the NULL
// row first shields it. ROADMAP item 16 makes these rows unknown instead.
func TestNullComparisonInEveryLayout(t *testing.T) {
	a, b, k := algebra.A("R", "a"), algebra.A("R", "b"), algebra.A("R", "k")
	layouts := []struct {
		name string
		cell func(i int) Value
		dict bool
		lit  sql.Value
	}{
		{"int", func(i int) Value { return Int(int64(i)) }, false, sql.NumberValue(1)},
		{"float", func(i int) Value { return Float(float64(i) + 0.5) }, false, sql.NumberValue(1)},
		{"string", func(i int) Value { return String(fmt.Sprintf("s%d", i)) }, false, sql.StringValue("s1")},
		{"dict", func(i int) Value { return String(fmt.Sprintf("s%d", i%2)) }, true, sql.StringValue("s1")},
		{"generic", func(i int) Value {
			if i%2 == 0 {
				return Int(int64(i))
			}
			return Float(float64(i))
		}, false, sql.NumberValue(1)},
	}
	for _, lay := range layouts {
		for _, nullRow := range []int{1, 4} {
			tbl := NewTable([]algebra.Attr{a, b, k})
			for i := 0; i < 6; i++ {
				c := lay.cell(i)
				if i == nullRow {
					c = Null()
				}
				tbl.Append([]Value{c, c, Int(int64(i))})
			}
			base := algebra.NewBase("R", "A", []algebra.Attr{a, b, k}, 6, nil)
			notNullRow := &algebra.CmpAV{A: k, Op: sql.OpNeq, V: sql.NumberValue(float64(nullRow))}
			for _, cmp := range []algebra.Pred{
				&algebra.CmpAV{A: a, Op: sql.OpGeq, V: lay.lit},
				&algebra.CmpAA{L: a, Op: sql.OpEq, R: b},
			} {
				t.Run(fmt.Sprintf("%s/null=%d/%s", lay.name, nullRow, cmp), func(t *testing.T) {
					forceDict(t, lay.dict)
					e := NewExecutor()
					e.BatchSize = 3
					e.Tables["R"] = tbl
					if _, err := e.Run(algebra.NewSelect(base, cmp, 0.5)); err == nil || err.Error() != "exec: NULL comparison" {
						t.Errorf("exposed NULL gave %v, want exec: NULL comparison", err)
					}
					if _, err := e.Run(algebra.NewSelect(base, algebra.And(notNullRow, cmp), 0.5)); err != nil {
						t.Errorf("shielded NULL gave %v", err)
					}
				})
			}
		}
	}
}

// TestHavingCountOverEncryptedAttribute: a count is plaintext whatever its
// operand's form, so HAVING count(p) > 1 over a det-encrypted p compares
// plaintext counts against the plaintext literal, and the dispatcher
// encrypts no constant for it.
func TestHavingCountOverEncryptedAttribute(t *testing.T) {
	ring, err := crypto.NewKeyRing("k", testPaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	g, p := algebra.A("R", "g"), algebra.A("R", "p")
	tbl := NewTable([]algebra.Attr{g, p})
	for i := 0; i < 5; i++ {
		tbl.Append([]Value{String([]string{"x", "x", "x", "y", "z"}[i]), Int(int64(i))})
	}
	enc := algebra.NewEncrypt(algebra.NewBase("R", "A", []algebra.Attr{g, p}, 5, nil), []algebra.Attr{p})
	enc.Schemes[p], enc.KeyIDs[p] = algebra.SchemeDeterministic, "k"
	grp := algebra.NewGroupBy(enc, []algebra.Attr{g}, []algebra.AggSpec{{Func: sql.AggCount, Attr: p}}, 3)
	sel := algebra.NewSelect(grp, &algebra.CmpAV{A: p, Op: sql.OpGt, V: sql.NumberValue(1), Agg: sql.AggCount}, 0.5)
	e := NewExecutor()
	e.Keys.Add(ring)
	e.Tables["R"] = tbl
	if e.Consts, err = PrepareConstants(sel, e.Keys, AttrKinds{g: KString, p: KInt}); err != nil {
		t.Fatal(err)
	}
	if len(e.Consts) != 0 {
		t.Fatalf("dispatched %d constants for a plaintext count, want none", len(e.Consts))
	}
	res, err := e.Run(sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "x" || res.Rows[0][1].I != 3 {
		t.Fatalf("HAVING count(p) > 1 gave %v, want the one row x, 3", res.Rows)
	}
}

// TestLikeAgainstAttribute: a LIKE whose pattern is another attribute
// matches each row's value against that row's pattern, in the plain and the
// dictionary layouts, as SQL does.
func TestLikeAgainstAttribute(t *testing.T) {
	a, b := algebra.A("R", "a"), algebra.A("R", "b")
	for _, dict := range []bool{false, true} {
		forceDict(t, dict)
		tbl := NewTable([]algebra.Attr{a, b})
		for _, r := range [][2]string{{"abc", "a%"}, {"abc", "b%"}, {"xyz", "x_z"}, {"xyz", "x_z"}} {
			tbl.Append([]Value{String(r[0]), String(r[1])})
		}
		e := NewExecutor()
		e.Tables["R"] = tbl
		base := algebra.NewBase("R", "A", []algebra.Attr{a, b}, 4, nil)
		res, err := e.Run(algebra.NewSelect(base, &algebra.CmpAA{L: a, Op: sql.OpLike, R: b}, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(res.Rows); got != "[[abc a%] [xyz x_z] [xyz x_z]]" {
			t.Errorf("dict=%v: a LIKE b kept %s", dict, got)
		}
	}
}
