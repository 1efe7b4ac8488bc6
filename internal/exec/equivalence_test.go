package exec_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/crypto"
	"mpq/internal/exec"
	"mpq/internal/planner"
	"mpq/internal/sql"
	"mpq/internal/sqlref"
	"mpq/internal/tpch"
)

// TestPipelineMatchesMaterializingTPCH runs the full 22-query TPC-H
// workload through the batch pipeline on centralized plaintext tables and
// compares every answer with the SQL reference (internal/sqlref) in
// canonical bytes. A last case joins on one equality pair with residual
// conjuncts over a dict-encoded string column holding NULLs and a
// deterministic-ciphertext column, the shape Q5 and Q9 give the hash join.
func TestPipelineMatchesMaterializingTPCH(t *testing.T) {
	const sf = 0.001
	cat := tpch.Catalog(sf)
	tables := tpch.Generate(sf, 99)
	want := tpchAnswers(t)
	pl := planner.New(cat)

	batch := exec.NewExecutor()
	for name, tbl := range tables {
		batch.Tables[name] = tbl
	}

	for _, q := range tpch.Queries() {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			plan, err := pl.PlanSQL(q.SQL)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := batch.RunPlan(plan)
			if err != nil {
				t.Fatalf("batch pipeline: %v", err)
			}
			diffRef(t, q.Name, got, want[q.Num])
		})
	}
	t.Run("residual join", func(t *testing.T) {
		ring, err := crypto.NewSymmetricKeyRing("k")
		if err != nil {
			t.Fatal(err)
		}
		rk, rs, rc := algebra.A("R", "k"), algebra.A("R", "s"), algebra.A("R", "c")
		sk, ss, sc := algebra.A("S", "k"), algebra.A("S", "s"), algebra.A("S", "c")
		// Promote every string column to a dictionary when the columnar
		// cache builds.
		defer exec.SetDictPolicy(exec.SetDictPolicy(exec.DictPolicy{MinRows: 1, MaxRatio: 1}))
		// Row i holds k = i mod 4, a string s (NULL where null(i)) and c,
		// the deterministic ciphertext of cOf(i). The reference's copy holds
		// cOf(i) itself.
		plain := make(map[string]sqlref.Table)
		table := func(name string, k, s, c algebra.Attr, n int, null func(int) bool, cOf func(int) int64) *exec.Table {
			tbl := exec.NewTable([]algebra.Attr{k, s, c})
			ref := sqlref.Table{Cols: []string{"k", "s", "c"}}
			for i := 0; i < n; i++ {
				sv := exec.String(fmt.Sprintf("s%d", i%2))
				if null(i) {
					sv = exec.Null()
				}
				cv, err := exec.EncryptValue(ring, algebra.SchemeDeterministic, exec.Int(cOf(i)))
				if err != nil {
					t.Fatal(err)
				}
				if err := tbl.Append([]exec.Value{exec.Int(int64(i % 4)), sv, cv}); err != nil {
					t.Fatal(err)
				}
				ref.Rows = append(ref.Rows, plainRow([]exec.Value{exec.Int(int64(i % 4)), sv, exec.Int(cOf(i))}))
			}
			plain[name] = ref
			return tbl
		}
		// R's NULLs sit at c = 4 and S's at c = 5, so a residual that tests
		// c first never compares a NULL; one that tests s first does.
		tables := map[string]*exec.Table{
			"R": table("R", rk, rs, rc, 40, func(i int) bool { return i%5 == 4 }, func(i int) int64 { return int64(i % 5) }),
			"S": table("S", sk, ss, sc, 30, func(i int) bool { return i%3 == 0 }, func(i int) int64 {
				if i%3 == 0 {
					return 5
				}
				return int64(i % 4)
			}),
		}
		// c is declared stored encrypted at rest, as its cells are.
		joinOn := func(residual ...algebra.Pred) algebra.Node {
			return algebra.NewJoin(
				algebra.NewStoredBase("R", "A", "", []algebra.Attr{rk, rs, rc}, []algebra.Attr{rc}, ring.ID, 40, nil),
				algebra.NewStoredBase("S", "B", "", []algebra.Attr{sk, ss, sc}, []algebra.Attr{sc}, ring.ID, 30, nil),
				algebra.And(append([]algebra.Pred{&algebra.CmpAA{L: rk, Op: sql.OpEq, R: sk}}, residual...)...),
				0.01)
		}
		sEq := &algebra.CmpAA{L: rs, Op: sql.OpEq, R: ss}
		cEq := &algebra.CmpAA{L: rc, Op: sql.OpEq, R: sc}
		pipeline := func(join algebra.Node, size int) (*exec.Table, error) {
			e := exec.NewExecutor()
			e.Keys.Add(ring)
			e.BatchSize = size
			e.Tables = tables
			op, err := e.Build(join)
			if err != nil {
				return nil, err
			}
			out, err := exec.Drain(op)
			if err != nil {
				return nil, err
			}
			return e.DecryptTable(out)
		}

		t.Run("NULL-shielded", func(t *testing.T) {
			want, err := sqlref.Query(plain, `select R.k, R.s, R.c, S.k, S.s, S.c
				from R join S on R.k = S.k and R.c = S.c and R.s = S.s`)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Rows) == 0 {
				t.Fatal("the residual join matches nothing: the case tests no rows")
			}
			for _, size := range []int{2, 1024} {
				got, err := pipeline(joinOn(cEq, sEq), size)
				if err != nil {
					t.Fatalf("batch=%d: %v", size, err)
				}
				cols, err := tables["R"].Columns()
				if err != nil {
					t.Fatal(err)
				}
				if cols[1].Kind != exec.ColDict {
					t.Fatalf("R.s is %v in the columnar cache, want a dictionary", cols[1].Kind)
				}
				diffRef(t, fmt.Sprintf("batch=%d", size), got, want)
			}
		})
		// SQL makes s = s unknown where either side is NULL and drops the
		// pair; the pipeline fails the query instead. ROADMAP 16 turns this
		// case into the reference's answer, as in the NULL-shielded case.
		t.Run("NULL-exposed", func(t *testing.T) {
			for _, size := range []int{2, 1024} {
				if _, err := pipeline(joinOn(sEq, cEq), size); err == nil || err.Error() != "exec: NULL comparison" {
					t.Errorf("batch=%d: NULL in the residual gave %v, want exec: NULL comparison", size, err)
				}
			}
		})
	})
}

// TestPipelineBatchSizeInvariance proves results do not depend on the batch
// granularity: a batch size of 1 (degenerate row-at-a-time streaming, where
// every columnar vector holds a single cell), a small odd size, and a batch
// size larger than every relation produce identical rows in identical order
// for the full 22-query TPC-H workload, and each answer is the SQL
// reference's.
func TestPipelineBatchSizeInvariance(t *testing.T) {
	const sf = 0.001
	cat := tpch.Catalog(sf)
	tables := tpch.Generate(sf, 99)
	want := tpchAnswers(t)
	pl := planner.New(cat)

	first := make(map[int]*exec.Table)
	for _, size := range []int{1, 7, 1 << 20} {
		e := exec.NewExecutor()
		e.BatchSize = size
		for name, tbl := range tables {
			e.Tables[name] = tbl
		}
		for _, q := range tpch.Queries() {
			plan, err := pl.PlanSQL(q.SQL)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := e.RunPlan(plan)
			if err != nil {
				t.Fatalf("batch=%d Q%d: %v", size, q.Num, err)
			}
			diffRef(t, fmt.Sprintf("batch=%d Q%d", size, q.Num), got, want[q.Num])
			if first[q.Num] == nil {
				first[q.Num] = got
			} else {
				diffTables(t, got, first[q.Num])
			}
		}
	}
}

// diffTables fails the test unless the two tables hold identical rows in
// identical order.
func diffTables(t *testing.T, got, want *exec.Table) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("row count %d, want %d", got.Len(), want.Len())
	}
	for i := range want.Rows {
		g, w := exec.DisplayString(got.Rows[i]), exec.DisplayString(want.Rows[i])
		if g != w {
			t.Fatalf("row %d differs:\ngot:  %s\nwant: %s", i, g, w)
		}
	}
}

var tpchRef struct {
	sync.Once
	answers map[int]*sqlref.Result
	err     error
}

// tpchAnswers returns the SQL reference's answers to the 22 queries over
// tpch.Generate(0.001, 99), computed once per test binary.
func tpchAnswers(t *testing.T) map[int]*sqlref.Result {
	t.Helper()
	tpchRef.Do(func() {
		tables := make(map[string]sqlref.Table)
		for name, tbl := range tpch.Generate(0.001, 99) {
			ref := sqlref.Table{}
			for _, a := range tbl.Schema {
				ref.Cols = append(ref.Cols, a.Name)
			}
			for _, row := range tbl.Rows {
				ref.Rows = append(ref.Rows, plainRow(row))
			}
			tables[name] = ref
		}
		tpchRef.answers = make(map[int]*sqlref.Result)
		for _, q := range tpch.Queries() {
			res, err := sqlref.Query(tables, q.SQL)
			if err != nil {
				tpchRef.err = fmt.Errorf("reference Q%d: %w", q.Num, err)
				return
			}
			tpchRef.answers[q.Num] = res
		}
	})
	if tpchRef.err != nil {
		t.Fatal(tpchRef.err)
	}
	return tpchRef.answers
}

// plainRow converts a plaintext row to the reference's Go values; a
// ciphertext renders unequal to any plaintext.
func plainRow(row []exec.Value) []any {
	out := make([]any, len(row))
	for i, v := range row {
		switch v.Kind {
		case exec.KInt:
			out[i] = v.I
		case exec.KFloat:
			out[i] = v.F
		case exec.KString:
			out[i] = v.S
		case exec.KCipher:
			out[i] = v.String()
		}
	}
	return out
}

// diffRef fails the test unless got renders to the reference answer's
// canonical bytes (sqlref.Result.Canon). An aggregate without GROUP BY over
// no input is the one known divergence: SQL answers one row of NULLs, the
// pipeline no row (ROADMAP 16). The check pins the pipeline's answer there
// so that the fix shows.
func diffRef(t *testing.T, what string, got *exec.Table, ref *sqlref.Result) {
	t.Helper()
	rows := make([][]any, got.Len())
	for i, row := range got.Rows {
		rows[i] = plainRow(row)
	}
	want := ref.Canon(ref.Rows)
	if ref.EmptyAggregate {
		want = ref.Canon(nil)
	}
	if g := ref.Canon(rows); !bytes.Equal(g, want) {
		t.Fatalf("%s differs from the SQL reference\ngot:\n%s\nwant:\n%s", what, g, want)
	}
}

// TestNullJoinKeysMatchReference puts NULLs in the hash-key columns of both
// join inputs, int and dictionary keys alike, and compares the pipeline
// with the SQL reference at batch sizes 1, 7 and 1024: a NULL key joins
// nothing, neither on the build side nor on the probe side, whether the
// build side is keyed by int64s (T.k holds no NULL) or by canonical bytes.
// Grouping by the same columns keeps the NULLs as one group.
func TestNullJoinKeysMatchReference(t *testing.T) {
	defer exec.SetDictPolicy(exec.SetDictPolicy(exec.DictPolicy{MinRows: 1, MaxRatio: 1}))
	plain := make(map[string]sqlref.Table)
	tables := make(map[string]*exec.Table)
	bases := make(map[string]*algebra.Base)
	// Row i of a table holds k = i mod 5 and s = "s<i mod 3>", each NULL
	// where its null function says, and v = i.
	add := func(name string, n int, nullK, nullS func(int) bool) {
		schema := []algebra.Attr{algebra.A(name, "k"), algebra.A(name, "s"), algebra.A(name, "v")}
		tbl := exec.NewTable(schema)
		ref := sqlref.Table{Cols: []string{"k", "s", "v"}}
		for i := 0; i < n; i++ {
			row := []exec.Value{exec.Int(int64(i % 5)), exec.String(fmt.Sprintf("s%d", i%3)), exec.Int(int64(i))}
			if nullK(i) {
				row[0] = exec.Null()
			}
			if nullS(i) {
				row[1] = exec.Null()
			}
			if err := tbl.Append(row); err != nil {
				t.Fatal(err)
			}
			ref.Rows = append(ref.Rows, plainRow(row))
		}
		plain[name], tables[name] = ref, tbl
		bases[name] = algebra.NewBase(name, "A", schema, float64(n), nil)
	}
	never := func(int) bool { return false }
	add("R", 40, func(i int) bool { return i%4 == 1 }, func(i int) bool { return i%7 == 2 })
	add("S", 30, func(i int) bool { return i%3 == 0 }, func(i int) bool { return i%4 == 3 })
	add("T", 20, never, never)
	join := func(l, r, col string) algebra.Node {
		return algebra.NewJoin(bases[l], bases[r],
			&algebra.CmpAA{L: algebra.A(l, col), Op: sql.OpEq, R: algebra.A(r, col)}, 0.1)
	}
	group := func(col string) algebra.Node {
		return algebra.NewGroupBy(bases["R"], []algebra.Attr{algebra.A("R", col)}, []algebra.AggSpec{
			{Func: sql.AggCount, Star: true}, {Func: sql.AggSum, Attr: algebra.A("R", "v")}}, 5)
	}
	cases := []struct {
		name string
		plan algebra.Node
		sql  string
	}{
		{"int keys, NULLs on both sides", join("R", "S", "k"), "select R.k, R.s, R.v, S.k, S.s, S.v from R join S on R.k = S.k"},
		{"int keys, NULL probes only", join("R", "T", "k"), "select R.k, R.s, R.v, T.k, T.s, T.v from R join T on R.k = T.k"},
		{"int keys, NULL builds only", join("T", "R", "k"), "select T.k, T.s, T.v, R.k, R.s, R.v from T join R on T.k = R.k"},
		{"dictionary keys", join("R", "S", "s"), "select R.k, R.s, R.v, S.k, S.s, S.v from R join S on R.s = S.s"},
		{"group by an int key", group("k"), "select k, count(*), sum(v) from R group by k"},
		{"group by a dictionary key", group("s"), "select s, count(*), sum(v) from R group by s"},
	}
	for _, c := range cases {
		want, err := sqlref.Query(plain, c.sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{1, 7, 1024} {
			e := exec.NewExecutor()
			e.BatchSize = size
			e.Tables = tables
			op, err := e.Build(c.plan)
			if err != nil {
				t.Fatal(err)
			}
			got, err := exec.Drain(op)
			if err != nil {
				t.Fatalf("%s, batch=%d: %v", c.name, size, err)
			}
			diffRef(t, fmt.Sprintf("%s, batch=%d", c.name, size), got, want)
		}
	}
	cols, err := tables["R"].Columns()
	if err != nil {
		t.Fatal(err)
	}
	if cols[0].Kind != exec.ColInt || cols[1].Kind != exec.ColDict {
		t.Fatalf("R's key columns are %v and %v in the columnar cache, want ColInt and ColDict", cols[0].Kind, cols[1].Kind)
	}
}

// TestGroupKeysAreInjective groups by two string columns whose values hold
// the bytes a separator-closed key encoding would confuse: ("x\x1fsy", "z")
// and ("x", "y\x1fsz") are two groups, as the SQL reference says, whether
// the columns are plain strings or dictionary-encoded.
func TestGroupKeysAreInjective(t *testing.T) {
	a, b, v := algebra.A("G", "a"), algebra.A("G", "b"), algebra.A("G", "v")
	pairs := [][2]string{{"x\x1fsy", "z"}, {"x", "y\x1fsz"}, {"x", "y\x1fsz"}, {"", "\x00"}, {"\x00", ""}}
	for _, policy := range []exec.DictPolicy{{MinRows: 1 << 30}, {MinRows: 1, MaxRatio: 1}} {
		prev := exec.SetDictPolicy(policy)
		tbl := exec.NewTable([]algebra.Attr{a, b, v})
		ref := sqlref.Table{Cols: []string{"a", "b", "v"}}
		for i, p := range pairs {
			row := []exec.Value{exec.String(p[0]), exec.String(p[1]), exec.Int(int64(i))}
			if err := tbl.Append(row); err != nil {
				t.Fatal(err)
			}
			ref.Rows = append(ref.Rows, plainRow(row))
		}
		want, err := sqlref.Query(map[string]sqlref.Table{"G": ref}, "select a, b, count(*), sum(v) from G group by a, b")
		if err != nil {
			t.Fatal(err)
		}
		e := exec.NewExecutor()
		e.Tables["G"] = tbl
		op, err := e.Build(algebra.NewGroupBy(algebra.NewBase("G", "A", []algebra.Attr{a, b, v}, float64(len(pairs)), nil),
			[]algebra.Attr{a, b}, []algebra.AggSpec{{Func: sql.AggCount, Star: true}, {Func: sql.AggSum, Attr: v}}, 4))
		if err != nil {
			t.Fatal(err)
		}
		got, err := exec.Drain(op)
		exec.SetDictPolicy(prev)
		if err != nil {
			t.Fatal(err)
		}
		diffRef(t, fmt.Sprintf("dict policy %+v", policy), got, want)
	}
}

// TestPaillierSumAvgMatchesReference groups 900 rows into 600 keys over a
// Paillier column at the production key size, where decryption packs
// several ciphertexts per exponentiation. Each group holds ints or floats
// of both signs; SUM and AVG (a ciphertext with a divisor) decrypt through
// the decrypt operator and through DecryptTable (the finalizer's
// DecryptBatch), and both answers equal the SQL reference's.
func TestPaillierSumAvgMatchesReference(t *testing.T) {
	ring, err := crypto.NewKeyRing("kp", crypto.DefaultPaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	k, v := algebra.A("T", "k"), algebra.A("T", "v")
	tbl := exec.NewTable([]algebra.Attr{k, v})
	ref := sqlref.Table{Cols: []string{"k", "v"}}
	for i := 0; i < 900; i++ {
		g := i % 600
		x := exec.Int(int64((i*7919)%100003 - 50000))
		if g%2 == 1 {
			x = exec.Float(float64((i*104729)%20011-10000) * 0.25)
		}
		row := []exec.Value{exec.Int(int64(g)), x}
		if err := tbl.Append(row); err != nil {
			t.Fatal(err)
		}
		ref.Rows = append(ref.Rows, plainRow(row))
	}
	want, err := sqlref.Query(map[string]sqlref.Table{"T": ref}, "select k, sum(v), avg(v) from T group by k")
	if err != nil {
		t.Fatal(err)
	}
	e := exec.NewExecutor()
	e.Keys.Add(ring)
	e.Tables["T"] = tbl
	enc := algebra.NewEncrypt(algebra.NewBase("T", "A", []algebra.Attr{k, v}, 900, nil), []algebra.Attr{v})
	enc.Schemes[v] = algebra.SchemePaillier
	enc.KeyIDs[v] = "kp"
	grp := algebra.NewGroupBy(enc, []algebra.Attr{k},
		[]algebra.AggSpec{{Func: sql.AggSum, Attr: v}, {Func: sql.AggAvg, Attr: v}}, 600)
	sums, err := e.Run(grp)
	if err != nil {
		t.Fatal(err)
	}
	if !sums.Rows[0][1].IsCipher() || !sums.Rows[0][2].IsCipher() {
		t.Fatalf("the group-by answered plaintext %v", sums.Rows[0])
	}
	rows, err := e.DecryptTable(sums)
	if err != nil {
		t.Fatal(err)
	}
	diffRef(t, "DecryptTable", rows, want)
	e.Materialized = map[algebra.Node]*exec.Table{grp: sums}
	dec := algebra.NewDecrypt(grp, []algebra.Attr{v})
	dec.KeyIDs[v] = "kp"
	cols, err := e.Run(dec)
	if err != nil {
		t.Fatal(err)
	}
	diffRef(t, "the decrypt operator", cols, want)
}
