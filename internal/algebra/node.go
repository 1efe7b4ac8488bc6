package algebra

import (
	"fmt"
	"slices"
	"strings"

	"mpq/internal/sql"
)

// Scheme names an encryption scheme usable for an attribute. The
// authorization model deliberately does not distinguish schemes (Section 2);
// the query optimizer picks, per attribute, the strongest scheme that still
// supports the operations executed on the encrypted values (Section 6).
type Scheme string

// Encryption schemes, ordered by decreasing protection.
const (
	SchemeRandom        Scheme = "rnd" // randomized symmetric encryption (no computation)
	SchemeDeterministic Scheme = "det" // deterministic symmetric encryption (equality)
	SchemeOPE           Scheme = "ope" // order-preserving encryption (range comparison)
	SchemePaillier      Scheme = "phe" // Paillier cryptosystem (additive aggregation)
)

// Node is a node of a query plan tree T(N): a base relation at the leaves or
// an operation at internal nodes, including the encryption and decryption
// operations of extended plans (Definition 5.1).
type Node interface {
	// Children returns the operand nodes (empty for a base relation).
	Children() []Node
	// Schema returns the visible attributes of the relation the node
	// produces, in column order.
	Schema() []Attr
	// Stats returns the estimated cardinality and per-attribute widths of
	// the produced relation.
	Stats() Stats
	// Op returns a short description of the node's operator.
	Op() string
}

// Stats holds the estimated output cardinality of a node and the estimated
// width in bytes of each schema attribute. They feed the economic cost model
// (Section 7), which multiplies processed/transmitted bytes by unit prices.
type Stats struct {
	Rows   float64
	Widths map[Attr]float64
}

// RowWidth returns the total estimated width of the attributes in schema.
func (s Stats) RowWidth(schema []Attr) float64 {
	var w float64
	for _, a := range schema {
		if v, ok := s.Widths[a]; ok {
			w += v
		} else {
			w += DefaultWidth
		}
	}
	return w
}

// Bytes returns the estimated size in bytes of the relation restricted to
// schema.
func (s Stats) Bytes(schema []Attr) float64 { return s.Rows * s.RowWidth(schema) }

// DefaultWidth is the width assumed for attributes with no catalog estimate.
const DefaultWidth = 8.0

func cloneWidths(m map[Attr]float64) map[Attr]float64 {
	c := make(map[Attr]float64, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// SchemaSet returns the node's schema as a set.
func SchemaSet(n Node) AttrSet { return NewAttrSet(n.Schema()...) }

// ---------------------------------------------------------------------------
// Base relation (leaf)

// Base is a leaf of the query plan: (the projection of) a source relation
// under the control of a data authority. Following the extension sketched
// in the paper's conclusions, a relation may be stored away from its
// authority — possibly in encrypted form — at a third-party storage
// provider: Storage names the hosting subject (empty = the authority) and
// EncAttrs lists the attributes held encrypted at rest, deterministically
// encrypted under the pre-established key StorageKey (so equality-based
// operations remain evaluable without decryption).
type Base struct {
	Name       string // relation name
	Authority  string // subject that controls the relation
	Storage    string // subject hosting the data ("" = the authority)
	Attrs      []Attr
	EncAttrs   []Attr // attributes stored encrypted at rest
	StorageKey string // key id of the at-rest encryption
	stats      Stats
}

// NewBase constructs a leaf for relation name controlled by authority, with
// the given projected attributes, estimated row count, and widths.
func NewBase(name, authority string, attrs []Attr, rows float64, widths map[Attr]float64) *Base {
	return &Base{Name: name, Authority: authority, Attrs: attrs, stats: Stats{Rows: rows, Widths: cloneWidths(widths)}}
}

// NewStoredBase constructs a leaf for a relation hosted at a third-party
// storage subject with some attributes encrypted at rest.
func NewStoredBase(name, authority, storage string, attrs, encAttrs []Attr, storageKey string,
	rows float64, widths map[Attr]float64) *Base {
	return &Base{
		Name: name, Authority: authority, Storage: storage,
		Attrs: attrs, EncAttrs: encAttrs, StorageKey: storageKey,
		stats: Stats{Rows: rows, Widths: cloneWidths(widths)},
	}
}

// Host returns the subject physically holding the relation: the storage
// provider when set, the data authority otherwise.
func (b *Base) Host() string {
	if b.Storage != "" {
		return b.Storage
	}
	return b.Authority
}

// EncSet returns the stored-encrypted attributes as a set, restricted to
// the projected attributes.
func (b *Base) EncSet() AttrSet {
	return NewAttrSet(b.EncAttrs...).Intersect(NewAttrSet(b.Attrs...))
}

// Children returns no children: a base relation is a leaf.
func (b *Base) Children() []Node { return nil }

// Schema returns the projected attributes of the base relation.
func (b *Base) Schema() []Attr { return b.Attrs }

// Stats returns the base relation statistics.
func (b *Base) Stats() Stats { return b.stats }

// Op describes the leaf.
func (b *Base) Op() string {
	names := make([]string, len(b.Attrs))
	for i, a := range b.Attrs {
		names[i] = a.Name
	}
	return fmt.Sprintf("%s(%s)", b.Name, strings.Join(names, ","))
}

// ---------------------------------------------------------------------------
// Projection

// Project returns a subset of the attributes of its operand (π).
type Project struct {
	Child Node
	Attrs []Attr
	stats Stats
}

// NewProject constructs a projection node.
func NewProject(child Node, attrs []Attr) *Project {
	cs := child.Stats()
	return &Project{Child: child, Attrs: attrs, stats: Stats{Rows: cs.Rows, Widths: cs.Widths}}
}

// Children returns the single operand.
func (p *Project) Children() []Node { return []Node{p.Child} }

// Schema returns the projected attributes.
func (p *Project) Schema() []Attr { return p.Attrs }

// Stats returns the estimated statistics (same cardinality as the operand).
func (p *Project) Stats() Stats { return p.stats }

// Op describes the projection.
func (p *Project) Op() string {
	names := make([]string, len(p.Attrs))
	for i, a := range p.Attrs {
		names[i] = a.String()
	}
	return "π[" + strings.Join(names, ",") + "]"
}

// ---------------------------------------------------------------------------
// Selection

// Select filters the tuples of its operand by a predicate (σ).
type Select struct {
	Child Node
	Pred  Pred
	stats Stats
}

// NewSelect constructs a selection node; selectivity is the estimated
// fraction of tuples retained.
func NewSelect(child Node, pred Pred, selectivity float64) *Select {
	cs := child.Stats()
	return &Select{Child: child, Pred: pred, stats: Stats{Rows: cs.Rows * selectivity, Widths: cs.Widths}}
}

// Children returns the single operand.
func (s *Select) Children() []Node { return []Node{s.Child} }

// Schema returns the operand schema (selection does not change it).
func (s *Select) Schema() []Attr { return s.Child.Schema() }

// Stats returns the estimated statistics after filtering.
func (s *Select) Stats() Stats { return s.stats }

// Op describes the selection.
func (s *Select) Op() string { return "σ[" + s.Pred.String() + "]" }

// ---------------------------------------------------------------------------
// Cartesian product

// Product combines every pair of tuples of its two operands (×).
type Product struct {
	L, R  Node
	stats Stats
}

// NewProduct constructs a cartesian product node.
func NewProduct(l, r Node) *Product {
	ls, rs := l.Stats(), r.Stats()
	w := cloneWidths(ls.Widths)
	for k, v := range rs.Widths {
		w[k] = v
	}
	return &Product{L: l, R: r, stats: Stats{Rows: ls.Rows * rs.Rows, Widths: w}}
}

// Children returns the two operands.
func (p *Product) Children() []Node { return []Node{p.L, p.R} }

// Schema returns the concatenation of the operand schemas.
func (p *Product) Schema() []Attr { return append(append([]Attr{}, p.L.Schema()...), p.R.Schema()...) }

// Stats returns the estimated statistics of the product.
func (p *Product) Stats() Stats { return p.stats }

// Op describes the product.
func (p *Product) Op() string { return "×" }

// ---------------------------------------------------------------------------
// Join

// Join concatenates the tuples of its operands that satisfy a join condition
// (⋈), a boolean formula of basic 'ai op aj' conditions.
type Join struct {
	L, R  Node
	Cond  Pred
	stats Stats
}

// NewJoin constructs a join node; selectivity is the estimated fraction of
// the cartesian product retained.
func NewJoin(l, r Node, cond Pred, selectivity float64) *Join {
	ls, rs := l.Stats(), r.Stats()
	w := cloneWidths(ls.Widths)
	for k, v := range rs.Widths {
		w[k] = v
	}
	return &Join{L: l, R: r, Cond: cond, stats: Stats{Rows: ls.Rows * rs.Rows * selectivity, Widths: w}}
}

// Children returns the two operands.
func (j *Join) Children() []Node { return []Node{j.L, j.R} }

// Schema returns the concatenation of the operand schemas.
func (j *Join) Schema() []Attr { return append(append([]Attr{}, j.L.Schema()...), j.R.Schema()...) }

// Stats returns the estimated statistics of the join result.
func (j *Join) Stats() Stats { return j.stats }

// Op describes the join.
func (j *Join) Op() string { return "⋈[" + j.Cond.String() + "]" }

// ---------------------------------------------------------------------------
// Group by

// CountAttrName is the schema name of the synthetic column produced by
// count(*). It is owned by no relation and carries no attribute information,
// so it does not participate in profiles or authorizations (the paper keeps
// only the grouping attributes in the result of count(*)).
const CountAttrName = "count(*)"

// CountAttr returns the synthetic count(*) result attribute.
func CountAttr() Attr { return Attr{Rel: "", Name: CountAttrName} }

// IsSynthetic reports whether a is a synthetic (profile-exempt) attribute.
func IsSynthetic(a Attr) bool { return a.Rel == "" && a.Name == CountAttrName }

// AggSpec is one aggregate computed by a group-by: a function over an
// attribute, or count(*) when Star is set. Per the paper's convention, the
// aggregate result keeps the name of its operand attribute (count(*) yields
// the synthetic CountAttr, which carries no attribute information).
type AggSpec struct {
	Func sql.AggFunc
	Attr Attr
	Star bool
}

// Out returns the schema attribute the aggregate produces.
func (a AggSpec) Out() Attr {
	if a.Star {
		return CountAttr()
	}
	return a.Attr
}

// String renders the aggregate in SQL-like syntax.
func (a AggSpec) String() string {
	if a.Star {
		return "count(*)"
	}
	return string(a.Func) + "(" + a.Attr.String() + ")"
}

// GroupBy groups its operand by attributes Keys and evaluates aggregate
// functions over operand attributes (γ). The paper's γ_{A,f(a)} carries a
// single aggregate; the multi-aggregate generalization applies the same
// profile rule with {a} replaced by the set of aggregated attributes.
type GroupBy struct {
	Child Node
	Keys  []Attr
	Aggs  []AggSpec
	stats Stats
}

// NewGroupBy constructs a group-by node; groups is the estimated number of
// distinct groups.
func NewGroupBy(child Node, keys []Attr, aggs []AggSpec, groups float64) *GroupBy {
	cs := child.Stats()
	w := cloneWidths(cs.Widths)
	for _, a := range aggs {
		if a.Star {
			w[CountAttr()] = 8
		}
	}
	if groups > cs.Rows {
		groups = cs.Rows
	}
	return &GroupBy{Child: child, Keys: keys, Aggs: aggs, stats: Stats{Rows: groups, Widths: w}}
}

// NewGroupBy1 constructs a group-by with a single aggregate (the paper's
// γ_{A,f(a)} form); star selects count(*).
func NewGroupBy1(child Node, keys []Attr, agg sql.AggFunc, aggAttr Attr, star bool, groups float64) *GroupBy {
	return NewGroupBy(child, keys, []AggSpec{{Func: agg, Attr: aggAttr, Star: star}}, groups)
}

// Children returns the single operand.
func (g *GroupBy) Children() []Node { return []Node{g.Child} }

// AggAttrs returns the set of non-synthetic attributes the aggregates
// operate on.
func (g *GroupBy) AggAttrs() AttrSet {
	out := NewAttrSet()
	for _, a := range g.Aggs {
		if !a.Star && !IsSynthetic(a.Attr) {
			out.Add(a.Attr)
		}
	}
	return out
}

// Schema returns the grouping attributes followed by the aggregate results
// in declaration order. Distinct aggregates over the same attribute yield
// positional columns sharing the attribute name, consistent with the
// paper's naming convention.
func (g *GroupBy) Schema() []Attr {
	out := append([]Attr{}, g.Keys...)
	for _, a := range g.Aggs {
		out = append(out, a.Out())
	}
	return out
}

// Stats returns the estimated statistics of the grouped result.
func (g *GroupBy) Stats() Stats { return g.stats }

// Op describes the group-by.
func (g *GroupBy) Op() string {
	keys := make([]string, len(g.Keys))
	for i, k := range g.Keys {
		keys[i] = k.String()
	}
	fs := make([]string, len(g.Aggs))
	for i, a := range g.Aggs {
		fs[i] = a.String()
	}
	return "γ[" + strings.Join(keys, ",") + "; " + strings.Join(fs, ",") + "]"
}

// ---------------------------------------------------------------------------
// User defined function

// UDF applies a procedural computation over a set of input attributes,
// producing one output attribute named after one of the inputs (µ).
type UDF struct {
	Child Node
	Name  string
	Args  []Attr
	Out   Attr // must be one of Args, per the paper's naming simplification
	stats Stats
}

// NewUDF constructs a udf node.
func NewUDF(child Node, name string, args []Attr, out Attr) *UDF {
	cs := child.Stats()
	return &UDF{Child: child, Name: name, Args: args, Out: out,
		stats: Stats{Rows: cs.Rows, Widths: cs.Widths}}
}

// Children returns the single operand.
func (u *UDF) Children() []Node { return []Node{u.Child} }

// Schema returns the operand attributes the udf does not consume, plus the
// output attribute.
func (u *UDF) Schema() []Attr {
	consumed := NewAttrSet(u.Args...)
	consumed.Remove(u.Out)
	var out []Attr
	for _, a := range u.Child.Schema() {
		if !consumed.Has(a) {
			out = append(out, a)
		}
	}
	if !slices.Contains(out, u.Out) {
		out = append(out, u.Out)
	}
	return out
}

// Stats returns the estimated statistics (cardinality preserved).
func (u *UDF) Stats() Stats { return u.stats }

// Op describes the udf.
func (u *UDF) Op() string {
	args := make([]string, len(u.Args))
	for i, a := range u.Args {
		args[i] = a.String()
	}
	return "µ[" + u.Name + "(" + strings.Join(args, ",") + ")→" + u.Out.String() + "]"
}

// ---------------------------------------------------------------------------
// Encryption / decryption (extended plans, Section 5)

// Encrypt turns plaintext attributes of its operand into encrypted form.
// Schemes and KeyIDs are annotations filled in by the plan extension step:
// the scheme chosen per attribute and the key (Definition 6.1) to use.
type Encrypt struct {
	Child   Node
	Attrs   []Attr
	Schemes map[Attr]Scheme
	KeyIDs  map[Attr]string
}

// NewEncrypt constructs an encryption node over the given attributes.
func NewEncrypt(child Node, attrs []Attr) *Encrypt {
	return &Encrypt{Child: child, Attrs: attrs,
		Schemes: make(map[Attr]Scheme), KeyIDs: make(map[Attr]string)}
}

// Children returns the single operand.
func (e *Encrypt) Children() []Node { return []Node{e.Child} }

// Schema returns the operand schema (encryption does not change it).
func (e *Encrypt) Schema() []Attr { return e.Child.Schema() }

// Stats returns the operand statistics. Ciphertext expansion is accounted
// for by the cost model, which knows the scheme expansion factors.
func (e *Encrypt) Stats() Stats { return e.Child.Stats() }

// Op describes the encryption.
func (e *Encrypt) Op() string {
	names := make([]string, len(e.Attrs))
	for i, a := range e.Attrs {
		names[i] = a.String()
		if s, ok := e.Schemes[a]; ok {
			names[i] += ":" + string(s)
		}
	}
	return "encrypt[" + strings.Join(names, ",") + "]"
}

// Decrypt turns encrypted attributes of its operand back into plaintext.
type Decrypt struct {
	Child  Node
	Attrs  []Attr
	KeyIDs map[Attr]string
}

// NewDecrypt constructs a decryption node over the given attributes.
func NewDecrypt(child Node, attrs []Attr) *Decrypt {
	return &Decrypt{Child: child, Attrs: attrs, KeyIDs: make(map[Attr]string)}
}

// Children returns the single operand.
func (d *Decrypt) Children() []Node { return []Node{d.Child} }

// Schema returns the operand schema (decryption does not change it).
func (d *Decrypt) Schema() []Attr { return d.Child.Schema() }

// Stats returns the operand statistics.
func (d *Decrypt) Stats() Stats { return d.Child.Stats() }

// Op describes the decryption.
func (d *Decrypt) Op() string {
	names := make([]string, len(d.Attrs))
	for i, a := range d.Attrs {
		names[i] = a.String()
	}
	return "decrypt[" + strings.Join(names, ",") + "]"
}
