// Package sqlref is a reference interpreter for the SQL fragment the engine
// accepts. It walks a parsed sql.SelectStmt directly over plain Go values
// (int64, float64, string, and nil for NULL) and shares no code with the
// engine: it imports neither internal/exec, internal/planner nor
// internal/algebra, and owns its comparison, LIKE matching, grouping and
// aggregate rules, written from SQL's semantics rather than the engine's.
// A defect in the engine's value semantics therefore cannot hide in the
// reference as well.
//
// The FROM/JOIN chain is built left to right, each ON applied as its table
// is added (an equality with the bound prefix probes a Go map that a NULL
// never enters); WHERE and HAVING run under three-valued logic; then GROUP
// BY, the five aggregates, DISTINCT, ORDER BY and LIMIT.
package sqlref

import (
	"cmp"
	"fmt"
	"math"
	"regexp"
	"slices"
	"sort"
	"strings"

	"mpq/internal/sql"
)

// Table is a relation: column names and rows of int64, float64, string or
// nil cells.
type Table struct {
	Cols []string
	Rows [][]any
}

// Result is a statement's answer in ORDER BY order, LIMIT applied.
type Result struct {
	Rows [][]any
	// EmptyAggregate marks an aggregate without GROUP BY over no input row:
	// its answer is one row of NULL sums, averages and extrema and zero
	// counts.
	EmptyAggregate bool
	keys           []int // output columns holding ORDER BY keys
	cut            bool  // LIMIT cut the last tie group of the ordering
}

// failure carries an evaluation error up to Query.
type failure struct{ error }

func fail(format string, args ...any) {
	panic(failure{fmt.Errorf("sqlref: "+format, args...)})
}

// Query parses text and answers it over tables.
func Query(tables map[string]Table, text string) (res *Result, err error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(failure)
			if !ok {
				panic(r)
			}
			err = f.error
		}
	}()
	q := &query{stmt: stmt, likes: make(map[string]*regexp.Regexp)}
	return q.run(tables), nil
}

// bound is one FROM table at its offset in a joined row.
type bound struct {
	ref string
	t   Table
	off int
}

type query struct {
	stmt  *sql.SelectStmt
	scope []bound
	likes map[string]*regexp.Regexp
}

// lookup resolves a column reference against the first n FROM tables to
// its index in a joined row, or -1 if it names none or several.
func (q *query) lookup(c sql.ColumnRef, n int) int {
	found := -1
	for _, b := range q.scope[:n] {
		for i, name := range b.t.Cols {
			if name == c.Column && (c.Table == "" || c.Table == b.ref) {
				if found >= 0 {
					return -1
				}
				found = b.off + i
			}
		}
	}
	return found
}

// col is lookup failing the statement on a bad reference; the empty
// reference of COUNT(*) resolves to -1.
func (q *query) col(c sql.ColumnRef, n int) int {
	ix := q.lookup(c, n)
	if ix < 0 && c != (sql.ColumnRef{}) {
		fail("unknown or ambiguous column %s", c)
	}
	return ix
}

// env is where an expression is evaluated: a group of rows joined from the
// first n FROM tables (one row for ON and WHERE), and the select-list
// values computed so far, which HAVING and ORDER BY may name by alias.
type env struct {
	q    *query
	g    [][]any
	n    int
	vals []any
}

// get returns a column's or an aggregate's value in the environment.
func (e *env) get(c sql.ColumnRef, agg sql.AggFunc) any {
	if agg != sql.AggNone {
		return e.q.aggregate(agg, e.q.col(c, e.n), e.g)
	}
	if e.q.lookup(c, e.n) < 0 && c.Table == "" {
		for i, it := range e.q.stmt.Items {
			if it.Alias == c.Column && i < len(e.vals) {
				return e.vals[i]
			}
		}
	}
	ix := e.q.col(c, e.n)
	if len(e.g) == 0 {
		return nil
	}
	return e.g[0][ix]
}

func (q *query) run(tables map[string]Table) *Result {
	s := q.stmt
	width := 0
	refs := []sql.TableRef{s.From}
	for _, j := range s.Joins {
		refs = append(refs, j.Table)
	}
	for _, r := range refs {
		t, ok := tables[r.Name]
		if !ok {
			fail("no table %q", r.Name)
		}
		q.scope = append(q.scope, bound{ref: r.RefName(), t: t, off: width})
		width += len(t.Cols)
	}
	rows := q.scope[0].t.Rows
	for i, j := range s.Joins {
		rows = q.join(i+1, rows, j.On)
	}
	if s.Where != nil {
		var kept [][]any
		for _, row := range rows {
			if q.eval(s.Where, &env{q: q, g: [][]any{row}, n: len(q.scope)}) == yes {
				kept = append(kept, row)
			}
		}
		rows = kept
	}
	groups, empty := q.group(rows)

	res := &Result{EmptyAggregate: empty}
	orderIx := make([]int, len(s.OrderBy))
	for i, o := range s.OrderBy {
		if orderIx[i] = q.itemIndex(o); orderIx[i] >= 0 {
			res.keys = append(res.keys, orderIx[i])
		}
	}
	type outRow struct{ vals, keys []any }
	var out []outRow
	seen := make(map[string]bool)
	for _, g := range groups {
		en := &env{q: q, g: g, n: len(q.scope)}
		for _, it := range s.Items {
			if it.UDF != "" {
				fail("user defined function %s is not supported", it.UDF)
			}
			en.vals = append(en.vals, en.get(it.Col, it.Agg))
		}
		if s.Having != nil && q.eval(s.Having, en) != yes {
			continue
		}
		if s.Distinct {
			k := keyOf(en.vals)
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		r := outRow{vals: en.vals}
		for i, o := range s.OrderBy {
			if orderIx[i] >= 0 {
				r.keys = append(r.keys, en.vals[orderIx[i]])
			} else {
				r.keys = append(r.keys, en.get(o.Col, o.Agg))
			}
		}
		out = append(out, r)
	}

	order := func(a, b outRow) int {
		for i, o := range s.OrderBy {
			if c := compare(a.keys[i], b.keys[i]); c != 0 {
				if o.Desc {
					return -c
				}
				return c
			}
		}
		return 0
	}
	sort.SliceStable(out, func(i, j int) bool { return order(out[i], out[j]) < 0 })
	if s.Limit >= 0 && len(out) > s.Limit {
		res.cut = s.Limit > 0 && order(out[s.Limit-1], out[s.Limit]) == 0
		out = out[:s.Limit]
	}
	for _, r := range out {
		res.Rows = append(res.Rows, r.vals)
	}
	return res
}

// join adds FROM table n to the joined prefix rows under on.
func (q *query) join(n int, prefix [][]any, on sql.Expr) (out [][]any) {
	right := q.scope[n]
	emit := func(l, r []any) {
		row := append(append(make([]any, 0, len(l)+len(r)), l...), r...)
		if on == nil || q.eval(on, &env{q: q, g: [][]any{row}, n: n + 1}) == yes {
			out = append(out, row)
		}
	}
	l, r := q.equality(n, on)
	if l < 0 {
		for _, lrow := range prefix {
			for _, rrow := range right.t.Rows {
				emit(lrow, rrow)
			}
		}
		return out
	}
	// Probe a map on the equality; the whole ON still filters each pair.
	index := make(map[any][]int)
	for i, row := range right.t.Rows {
		if v := row[r-right.off]; v != nil {
			index[mapKey(v)] = append(index[mapKey(v)], i)
		}
	}
	for _, lrow := range prefix {
		for _, i := range index[mapKey(lrow[l])] {
			emit(lrow, right.t.Rows[i])
		}
	}
	return out
}

// equality finds the first ON conjunct equating a column of the bound
// prefix (l) with one of FROM table n (r), or returns -1, -1.
func (q *query) equality(n int, on sql.Expr) (l, r int) {
	off := q.scope[n].off
	for _, e := range sql.SplitConjuncts(on) {
		c, ok := e.(*sql.Comparison)
		if !ok || c.Op != sql.OpEq || c.RightCol == nil || c.Agg != sql.AggNone {
			continue
		}
		l, r := q.lookup(c.Left, n+1), q.lookup(*c.RightCol, n+1)
		if l >= 0 && r >= 0 && (l < off) != (r < off) {
			if l >= off {
				l, r = r, l
			}
			return l, r
		}
	}
	return -1, -1
}

// group partitions rows: one group per GROUP BY key, one over every row
// for an aggregate without GROUP BY (empty reports that it has no row),
// one per row otherwise.
func (q *query) group(rows [][]any) (groups [][][]any, empty bool) {
	s := q.stmt
	grouped := len(s.GroupBy) > 0 || s.Having != nil ||
		slices.ContainsFunc(s.Items, func(it sql.SelectItem) bool { return it.Agg != sql.AggNone }) ||
		slices.ContainsFunc(s.OrderBy, func(o sql.OrderItem) bool { return o.Agg != sql.AggNone })
	switch {
	case len(s.GroupBy) > 0:
		at := make(map[string]int)
		for _, row := range rows {
			k := make([]any, len(s.GroupBy))
			for i, c := range s.GroupBy {
				k[i] = row[q.col(c, len(q.scope))]
			}
			g, ok := at[keyOf(k)]
			if !ok {
				g = len(groups)
				at[keyOf(k)] = g
				groups = append(groups, nil)
			}
			groups[g] = append(groups[g], row)
		}
		return groups, false
	case grouped:
		return [][][]any{rows}, len(rows) == 0
	}
	for _, row := range rows {
		groups = append(groups, [][]any{row})
	}
	return groups, false
}

// itemIndex returns the select item an ORDER BY entry names — by alias, or
// by the same column or aggregate — or -1.
func (q *query) itemIndex(o sql.OrderItem) int {
	for i, it := range q.stmt.Items {
		if o.Agg == sql.AggNone && o.Col.Table == "" && it.Alias == o.Col.Column {
			return i
		}
	}
	want := q.lookup(o.Col, len(q.scope))
	for i, it := range q.stmt.Items {
		if want >= 0 && q.lookup(it.Col, len(q.scope)) == want && it.Agg == o.Agg && it.UDF == "" {
			return i
		}
	}
	return -1
}

// mapKey makes numerically equal int64 and float64 values one map key.
func mapKey(v any) any {
	if i, ok := v.(int64); ok {
		return float64(i)
	}
	return v
}

// keyOf encodes a tuple of cells as a grouping key: NULLs form one group,
// numerically equal numbers another.
func keyOf(vals []any) string {
	var b strings.Builder
	for _, v := range vals {
		fmt.Fprintf(&b, "%T%#v|", mapKey(v), mapKey(v))
	}
	return b.String()
}

// aggregate computes agg over column ix of a group's rows (ix < 0 is
// COUNT(*), which counts rows). NULLs are skipped; SUM, AVG, MIN and MAX
// of no value are NULL.
func (q *query) aggregate(agg sql.AggFunc, ix int, rows [][]any) any {
	if ix < 0 {
		return int64(len(rows))
	}
	var n, isum int64
	var fsum float64
	floats := false
	var best any
	for _, row := range rows {
		v := row[ix]
		if v == nil {
			continue
		}
		n++
		switch x := v.(type) {
		case int64:
			isum += x
		case float64:
			fsum += x
			floats = true
		default:
			if agg == sql.AggSum || agg == sql.AggAvg {
				fail("%s over non-numeric %v", agg, v)
			}
		}
		if best == nil || agg == sql.AggMin && compare(v, best) < 0 || agg == sql.AggMax && compare(v, best) > 0 {
			best = v
		}
	}
	switch {
	case agg == sql.AggCount:
		return n
	case agg == sql.AggMin || agg == sql.AggMax:
		return best
	case n == 0:
		return nil
	case agg == sql.AggAvg:
		return (fsum + float64(isum)) / float64(n)
	case floats:
		return fsum + float64(isum)
	}
	return isum
}

// truth is a three-valued logic value: AND is min, OR is max, NOT is
// yes-x.
type truth int8

const (
	no truth = iota
	unknown
	yes
)

func truthOf(b bool) truth {
	if b {
		return yes
	}
	return no
}

func (q *query) eval(e sql.Expr, en *env) truth {
	switch x := e.(type) {
	case *sql.BinaryLogic:
		l, r := q.eval(x.Left, en), q.eval(x.Right, en)
		if x.And {
			return min(l, r)
		}
		return max(l, r)
	case *sql.NotExpr:
		return yes - q.eval(x.Inner, en)
	case *sql.Comparison:
		l := en.get(x.Left, x.Agg)
		var r any = x.RightVal.Num
		if x.RightCol != nil {
			r = en.get(*x.RightCol, sql.AggNone)
		} else if x.RightVal.IsString {
			r = x.RightVal.Str
		}
		switch {
		case l == nil || r == nil:
			return unknown
		case x.Op == sql.OpLike:
			return truthOf(q.like(l, r))
		}
		c, op := compare(l, r), x.Op
		return truthOf(c < 0 && (op == sql.OpLt || op == sql.OpLeq || op == sql.OpNeq) ||
			c == 0 && (op == sql.OpEq || op == sql.OpLeq || op == sql.OpGeq) ||
			c > 0 && (op == sql.OpGt || op == sql.OpGeq || op == sql.OpNeq))
	}
	fail("unsupported expression %T", e)
	return no
}

// like matches a string against a LIKE pattern: % is any run of
// characters, _ is one character, and the pattern covers the whole string.
func (q *query) like(s, pattern any) bool {
	str, ok1 := s.(string)
	pat, ok2 := pattern.(string)
	if !ok1 || !ok2 {
		fail("LIKE over non-string %v", s)
	}
	re := q.likes[pat]
	if re == nil {
		// QuoteMeta leaves % and _ alone: they are not regexp syntax.
		wild := strings.NewReplacer("%", ".*", "_", ".").Replace(regexp.QuoteMeta(pat))
		re = regexp.MustCompile(`(?s)^` + wild + `$`)
		q.likes[pat] = re
	}
	return re.MatchString(str)
}

// compare orders two values: NULL before every value, numbers
// numerically, strings by bytes. Any other pairing fails the statement.
func compare(a, b any) int {
	sa, aStr := a.(string)
	sb, bStr := b.(string)
	fa, aNum := number(a)
	fb, bNum := number(b)
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil:
		return -1
	case b == nil:
		return 1
	case aStr && bStr:
		return strings.Compare(sa, sb)
	case aNum && bNum:
		return cmp.Compare(fa, fb)
	}
	fail("comparing %v with %v", a, b)
	return 0
}

func number(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// Canon renders rows — the reference's own or another engine's answer to
// the same statement — to canonical bytes. Numbers are rounded to two
// decimals with integers written as floats, so a Paillier sum that decodes
// as an integer equals the plaintext float sum. Consecutive rows whose
// ORDER BY key columns render equal form a tie group, sorted within; with
// no ORDER BY the whole answer is one group. When the LIMIT cut the last
// tie group, that group renders its key columns only, since which of its
// rows made the cut is unspecified.
func (r *Result) Canon(rows [][]any) []byte {
	var b strings.Builder
	for lo := 0; lo < len(rows); {
		key := render(rows[lo], r.keys)
		hi := lo + 1
		for hi < len(rows) && render(rows[hi], r.keys) == key {
			hi++
		}
		var lines []string
		for _, row := range rows[lo:hi] {
			cols := r.keys
			if !r.cut || hi < len(rows) {
				cols = make([]int, len(row))
				for i := range cols {
					cols[i] = i
				}
			}
			lines = append(lines, render(row, cols))
		}
		sort.Strings(lines)
		b.WriteString(strings.Join(lines, "\n") + "\n--\n")
		lo = hi
	}
	return []byte(b.String())
}

// render writes the cells of row at cols.
func render(row []any, cols []int) string {
	var b strings.Builder
	for _, ix := range cols {
		var v any = "<missing>"
		if ix < len(row) {
			v = row[ix]
		}
		f, ok := number(v)
		switch {
		case v == nil:
			b.WriteString("|NULL")
		case ok:
			if f = math.Round(f*100) / 100; f == 0 {
				f = 0 // no negative zero
			}
			fmt.Fprintf(&b, "|%.2f", f)
		default:
			fmt.Fprintf(&b, "|%q", v)
		}
	}
	return b.String()
}
