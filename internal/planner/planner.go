// Package planner turns parsed SQL statements into relational algebra plans
// over a catalog, standing in for the PostgreSQL optimizer the paper's tool
// consumed plans from (Section 7: "the mapping from relational algebra
// operators to the physical PostgreSQL operators was immediate"). It
// implements the classical optimizations the paper assumes: projections
// pushed down into the leaves (a leaf is the projection of a source
// relation), selections pushed below joins, and FROM-order left-deep join
// trees with textbook selectivity estimation.
package planner

import (
	"fmt"

	"mpq/internal/algebra"
	"mpq/internal/sql"
)

// OutputCol describes one column of the query result: its display name and
// the index of the column in the plan root's schema.
type OutputCol struct {
	Name  string
	Index int
	Agg   sql.AggFunc // aggregate applied, for display
	Star  bool        // count(*)
}

// OrderSpec is a resolved ORDER BY entry: an output column index and
// direction.
type OrderSpec struct {
	Index int
	Desc  bool
}

// Plan is a planned query: the algebra tree plus the result shaping that
// does not influence profiles or authorizations (output column mapping,
// ordering, limit).
type Plan struct {
	Root    algebra.Node
	Output  []OutputCol
	OrderBy []OrderSpec
	Limit   int // -1 when absent
	Stmt    *sql.SelectStmt
}

// Planner builds plans against a catalog.
type Planner struct {
	Catalog *algebra.Catalog
}

// New returns a planner over the catalog.
func New(cat *algebra.Catalog) *Planner { return &Planner{Catalog: cat} }

// PlanSQL parses and plans a query in one call.
func (p *Planner) PlanSQL(query string) (*Plan, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return p.Plan(stmt)
}

// binding maps the FROM-clause references of a statement to catalog
// relations.
type binding struct {
	cat     *algebra.Catalog
	byRef   map[string]*algebra.Relation // alias or name → relation
	inOrder []*algebra.Relation
}

func bindStmt(cat *algebra.Catalog, stmt *sql.SelectStmt) (*binding, error) {
	b := &binding{cat: cat, byRef: make(map[string]*algebra.Relation)}
	add := func(tr sql.TableRef) error {
		rel := cat.Relation(tr.Name)
		if rel == nil {
			return fmt.Errorf("planner: unknown relation %q", tr.Name)
		}
		ref := tr.RefName()
		if _, dup := b.byRef[ref]; dup {
			return fmt.Errorf("planner: duplicate relation reference %q", ref)
		}
		for _, r := range b.inOrder {
			if r == rel {
				return fmt.Errorf("planner: relation %q used twice (self-joins are not supported)", tr.Name)
			}
		}
		b.byRef[ref] = rel
		b.inOrder = append(b.inOrder, rel)
		return nil
	}
	if err := add(stmt.From); err != nil {
		return nil, err
	}
	for _, j := range stmt.Joins {
		if err := add(j.Table); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// resolve maps a column reference to a qualified attribute.
func (b *binding) resolve(c sql.ColumnRef) (algebra.Attr, error) {
	if c.Table != "" {
		rel, ok := b.byRef[c.Table]
		if !ok {
			return algebra.Attr{}, fmt.Errorf("planner: unknown table reference %q", c.Table)
		}
		if rel.Column(c.Column) == nil {
			return algebra.Attr{}, fmt.Errorf("planner: relation %s has no column %q", rel.Name, c.Column)
		}
		return algebra.Attr{Rel: rel.Name, Name: c.Column}, nil
	}
	names := make([]string, len(b.inOrder))
	for i, r := range b.inOrder {
		names[i] = r.Name
	}
	return b.cat.Resolve(c.Column, names)
}

// toPred converts a SQL boolean expression into an algebra predicate.
func (b *binding) toPred(e sql.Expr) (algebra.Pred, error) {
	switch x := e.(type) {
	case nil:
		return nil, nil
	case *sql.Comparison:
		l, err := b.resolve(x.Left)
		if err != nil {
			if x.Agg == sql.AggCount && x.Left.Column == "" {
				// count(*) compared in HAVING.
				l = algebra.CountAttr()
			} else {
				return nil, err
			}
		}
		if x.RightCol != nil {
			r, err := b.resolve(*x.RightCol)
			if err != nil {
				return nil, err
			}
			if x.Agg != sql.AggNone {
				return nil, fmt.Errorf("planner: aggregate compared against a column is not supported")
			}
			return &algebra.CmpAA{L: l, Op: x.Op, R: r}, nil
		}
		return &algebra.CmpAV{A: l, Op: x.Op, V: x.RightVal, Agg: x.Agg}, nil
	case *sql.BinaryLogic:
		l, err := b.toPred(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := b.toPred(x.Right)
		if err != nil {
			return nil, err
		}
		if x.And {
			return algebra.And(l, r), nil
		}
		return &algebra.OrPred{Preds: []algebra.Pred{l, r}}, nil
	case *sql.NotExpr:
		inner, err := b.toPred(x.Inner)
		if err != nil {
			return nil, err
		}
		return &algebra.NotPred{Inner: inner}, nil
	}
	return nil, fmt.Errorf("planner: unsupported expression %T", e)
}

// PlanOptions parameterizes nothing: the planner has one join order.
//
// Deprecated: kept only for callers of PlanWith; use Plan.
type PlanOptions struct{}

// PlanWith is Plan; the options are ignored.
//
// Deprecated: use Plan.
func (p *Planner) PlanWith(stmt *sql.SelectStmt, _ PlanOptions) (*Plan, error) {
	return p.Plan(stmt)
}

// Plan builds the algebra plan for a parsed statement: projections and
// selections pushed down into the leaves, and a left-deep join tree in FROM
// order with textbook selectivity estimates. The join order is the
// statement's own: the paper takes the plan as input (its tool read plans
// from PostgreSQL), and the assignment search starts from it. SELECT
// DISTINCT is refused: no plan operator removes duplicate rows.
func (p *Planner) Plan(stmt *sql.SelectStmt) (*Plan, error) {
	if stmt.Distinct {
		return nil, fmt.Errorf("planner: SELECT DISTINCT is not supported")
	}
	b, err := bindStmt(p.Catalog, stmt)
	if err != nil {
		return nil, err
	}
	est := newEstimator(p.Catalog)

	// Resolve all predicate sources.
	where, err := b.toPred(stmt.Where)
	if err != nil {
		return nil, err
	}
	having, err := b.toPred(stmt.Having)
	if err != nil {
		return nil, err
	}
	joinOn := make([]algebra.Pred, len(stmt.Joins))
	for i, j := range stmt.Joins {
		if j.On != nil {
			pr, err := b.toPred(j.On)
			if err != nil {
				return nil, err
			}
			joinOn[i] = pr
		}
	}
	groupKeys := make([]algebra.Attr, len(stmt.GroupBy))
	for i, c := range stmt.GroupBy {
		a, err := b.resolve(c)
		if err != nil {
			return nil, err
		}
		groupKeys[i] = a
	}

	// Resolve the select list and collect aggregates and udfs.
	type selItem struct {
		col   sql.SelectItem
		attr  algebra.Attr // resolved column / aggregate operand / udf output
		args  []algebra.Attr
		isUDF bool
	}
	items := make([]selItem, len(stmt.Items))
	var aggs []algebra.AggSpec
	aggIndexOf := make(map[int]int) // select-item index → agg index
	hasAgg := false
	for i, it := range stmt.Items {
		si := selItem{col: it}
		switch {
		case it.UDF != "":
			si.isUDF = true
			for _, ac := range it.UDFArgs {
				a, err := b.resolve(ac)
				if err != nil {
					return nil, err
				}
				si.args = append(si.args, a)
			}
			if len(si.args) == 0 {
				return nil, fmt.Errorf("planner: udf %s has no arguments", it.UDF)
			}
			si.attr = si.args[0] // paper convention: output named as an input
		case it.Agg != sql.AggNone:
			hasAgg = true
			spec := algebra.AggSpec{Func: it.Agg, Star: it.Star}
			if !it.Star {
				a, err := b.resolve(it.Col)
				if err != nil {
					return nil, err
				}
				spec.Attr = a
				si.attr = a
			} else {
				si.attr = algebra.CountAttr()
			}
			aggIndexOf[i] = len(aggs)
			aggs = append(aggs, spec)
		default:
			a, err := b.resolve(it.Col)
			if err != nil {
				return nil, err
			}
			si.attr = a
		}
		items[i] = si
	}

	// Aggregates mentioned only in HAVING or ORDER BY still need computing.
	extraAgg := func(f sql.AggFunc, attr algebra.Attr, star bool) int {
		for j, sp := range aggs {
			if sp.Func == f && sp.Star == star && (star || sp.Attr == attr) {
				return j
			}
		}
		aggs = append(aggs, algebra.AggSpec{Func: f, Attr: attr, Star: star})
		return len(aggs) - 1
	}
	if having != nil {
		algebra.WalkPred(having, func(q algebra.Pred) {
			if av, ok := q.(*algebra.CmpAV); ok && av.Agg != sql.AggNone {
				extraAgg(av.Agg, av.A, algebra.IsSynthetic(av.A))
			}
		})
	}
	for _, o := range stmt.OrderBy {
		if o.Agg != sql.AggNone {
			a, err := b.resolve(o.Col)
			if err != nil {
				return nil, err
			}
			extraAgg(o.Agg, a, false)
		}
	}
	grouped := hasAgg || len(groupKeys) > 0
	if having != nil && !grouped {
		return nil, fmt.Errorf("planner: HAVING without aggregation or GROUP BY")
	}

	// Needed attributes per relation (projection pushdown into the leaves).
	needed := algebra.NewAttrSet()
	collect := func(pr algebra.Pred) {
		if pr != nil {
			needed = needed.Union(pr.Attrs())
		}
	}
	collect(where)
	collect(having)
	for _, pr := range joinOn {
		collect(pr)
	}
	needed.Add(groupKeys...)
	for _, si := range items {
		if si.isUDF {
			needed.Add(si.args...)
		} else if !algebra.IsSynthetic(si.attr) {
			needed.Add(si.attr)
		}
	}
	for _, sp := range aggs {
		if !sp.Star {
			needed.Add(sp.Attr)
		}
	}
	needed.Remove(algebra.CountAttr())

	// Split WHERE into single-relation conjuncts (pushed down), join
	// conjuncts, and residual conjuncts.
	var relConj = make(map[string][]algebra.Pred)
	var joinConj, residual []algebra.Pred
	for _, c := range algebra.Conjuncts(where) {
		if aggRefs(c) {
			return nil, fmt.Errorf("planner: aggregate in WHERE clause")
		}
		rels := relationsOf(c)
		switch {
		case len(rels) == 1 && isPushable(c):
			for r := range rels {
				relConj[r] = append(relConj[r], c)
			}
		case len(rels) == 2 && isJoinCond(c):
			joinConj = append(joinConj, c)
		default:
			residual = append(residual, c)
		}
	}

	// Base nodes with pushed projections and selections.
	scans := make(map[string]algebra.Node, len(b.inOrder))
	for _, rel := range b.inOrder {
		var attrs []algebra.Attr
		for _, a := range rel.Attrs() {
			if needed.Has(a) {
				attrs = append(attrs, a)
			}
		}
		if len(attrs) == 0 {
			// A relation used only for its cardinality: keep one column.
			attrs = rel.Attrs()[:1]
		}
		var n algebra.Node = algebra.NewBase(rel.Name, rel.Authority, attrs, rel.Rows, rel.Widths())
		if conj := relConj[rel.Name]; len(conj) > 0 {
			pred := algebra.And(conj...)
			n = algebra.NewSelect(n, pred, est.selectivity(pred))
		}
		scans[rel.Name] = n
	}

	// Left-deep join tree in FROM order.
	cur := scans[b.inOrder[0].Name]
	joined := algebra.NewAttrSet(cur.Schema()...)
	pendingJoin := append([]algebra.Pred{}, joinConj...)
	for i := 1; i < len(b.inOrder); i++ {
		rel := b.inOrder[i]
		right := scans[rel.Name]
		available := joined.Union(algebra.NewAttrSet(right.Schema()...))
		var conds []algebra.Pred
		if on := joinOn[i-1]; on != nil {
			conds = append(conds, on)
		}
		var still []algebra.Pred
		for _, c := range pendingJoin {
			if c.Attrs().SubsetOf(available) {
				conds = append(conds, c)
			} else {
				still = append(still, c)
			}
		}
		pendingJoin = still
		if len(conds) > 0 {
			cond := algebra.And(conds...)
			cur = algebra.NewJoin(cur, right, cond, est.joinSelectivity(cond))
		} else {
			cur = algebra.NewProduct(cur, right)
		}
		joined = available
	}
	residual = append(residual, pendingJoin...)
	if len(residual) > 0 {
		pred := algebra.And(residual...)
		cur = algebra.NewSelect(cur, pred, est.selectivity(pred))
	}

	// UDF applications (before aggregation; udf over aggregates is not
	// supported).
	for i := range items {
		if items[i].isUDF {
			if grouped {
				return nil, fmt.Errorf("planner: udf together with aggregation is not supported")
			}
			cur = algebra.NewUDF(cur, items[i].col.UDF, items[i].args, items[i].attr)
		}
	}

	// Aggregation and HAVING.
	if grouped {
		cur = algebra.NewGroupBy(cur, groupKeys, aggs, est.groups(groupKeys, cur.Stats().Rows))
		if having != nil {
			cur = algebra.NewSelect(cur, having, est.selectivity(having))
		}
	}

	// Final projection when the visible schema exceeds the output columns
	// (e.g. attributes retrieved only for WHERE evaluation).
	var outAttrs []algebra.Attr
	seen := algebra.NewAttrSet()
	for _, si := range items {
		if !seen.Has(si.attr) {
			outAttrs = append(outAttrs, si.attr)
			seen.Add(si.attr)
		}
	}
	if !grouped {
		top := algebra.SchemaSet(cur)
		if !top.SubsetOf(seen) {
			cur = algebra.NewProject(cur, outAttrs)
		}
	}

	plan := &Plan{Root: cur, Limit: stmt.Limit, Stmt: stmt}

	// Output column mapping.
	schema := cur.Schema()
	keyIndex := func(a algebra.Attr) int {
		for i, sa := range schema {
			if sa == a {
				return i
			}
		}
		return -1
	}
	for i, si := range items {
		oc := OutputCol{Name: si.col.Alias, Agg: si.col.Agg, Star: si.col.Star}
		if oc.Name == "" {
			oc.Name = si.col.String()
		}
		if j, ok := aggIndexOf[i]; ok && grouped {
			oc.Index = len(groupKeys) + j
		} else {
			oc.Index = keyIndex(si.attr)
		}
		if oc.Index < 0 || oc.Index >= len(schema) {
			return nil, fmt.Errorf("planner: internal error: output column %q not in schema", oc.Name)
		}
		plan.Output = append(plan.Output, oc)
	}

	// ORDER BY resolution: by alias, then by column/aggregate shape.
	for _, o := range stmt.OrderBy {
		idx := -1
		for j, oc := range plan.Output {
			it := stmt.Items[j]
			switch {
			case o.Agg != sql.AggNone && it.Agg == o.Agg && it.Col == o.Col:
				idx = oc.Index
			case o.Agg == sql.AggNone && o.Col.Table == "" && it.Alias == o.Col.Column:
				idx = oc.Index
			case o.Agg == sql.AggNone && it.Agg == sql.AggNone && it.UDF == "" && it.Col == o.Col:
				idx = oc.Index
			}
			if idx >= 0 {
				break
			}
		}
		if idx < 0 && o.Agg == sql.AggNone {
			if a, err := b.resolve(o.Col); err == nil {
				idx = keyIndex(a)
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("planner: cannot resolve ORDER BY %s", o.Col)
		}
		plan.OrderBy = append(plan.OrderBy, OrderSpec{Index: idx, Desc: o.Desc})
	}
	return plan, nil
}

// relationsOf returns the names of the relations a predicate mentions.
func relationsOf(p algebra.Pred) map[string]struct{} {
	out := make(map[string]struct{})
	for a := range p.Attrs().All() {
		if !algebra.IsSynthetic(a) {
			out[a.Rel] = struct{}{}
		}
	}
	return out
}

// isPushable reports whether a conjunct can be evaluated on a single scan
// (no aggregates).
func isPushable(p algebra.Pred) bool { return !aggRefs(p) }

// aggRefs reports whether the predicate references an aggregate.
func aggRefs(p algebra.Pred) bool {
	found := false
	algebra.WalkPred(p, func(q algebra.Pred) {
		if av, ok := q.(*algebra.CmpAV); ok && av.Agg != sql.AggNone {
			found = true
		}
	})
	return found
}

// isJoinCond reports whether the conjunct is a pure attribute-attribute
// comparison usable as a join condition.
func isJoinCond(p algebra.Pred) bool {
	_, ok := p.(*algebra.CmpAA)
	return ok
}
