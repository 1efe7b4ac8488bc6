package algebra

import (
	"fmt"
	"sort"
)

// ColType is the data type of a column, used by the execution engine and by
// the crypto layer to pick encodings.
type ColType int

// Column data types.
const (
	TInt ColType = iota
	TFloat
	TString
	TDate // stored as days since epoch
)

// String names the type.
func (t ColType) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TString:
		return "string"
	case TDate:
		return "date"
	}
	return fmt.Sprintf("ColType(%d)", int(t))
}

// Column describes one column of a catalog relation.
type Column struct {
	Name     string
	Type     ColType
	Width    float64 // estimated width in bytes
	Distinct float64 // estimated number of distinct values (0 = unknown)
}

// Relation describes a base relation: its schema, its estimated cardinality,
// and the data authority controlling it.
type Relation struct {
	Name      string
	Authority string
	Columns   []Column
	Rows      float64
}

// Attrs returns the qualified attributes of the relation in column order.
func (r *Relation) Attrs() []Attr {
	out := make([]Attr, len(r.Columns))
	for i, c := range r.Columns {
		out[i] = Attr{Rel: r.Name, Name: c.Name}
	}
	return out
}

// Column returns the column with the given name, or nil.
func (r *Relation) Column(name string) *Column {
	for i := range r.Columns {
		if r.Columns[i].Name == name {
			return &r.Columns[i]
		}
	}
	return nil
}

// Widths returns the per-attribute width map for the relation.
func (r *Relation) Widths() map[Attr]float64 {
	w := make(map[Attr]float64, len(r.Columns))
	for _, c := range r.Columns {
		w[Attr{Rel: r.Name, Name: c.Name}] = c.Width
	}
	return w
}

// Catalog is the set of base relations known to the planner, with their
// statistics and controlling authorities.
type Catalog struct {
	rels map[string]*Relation
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{rels: make(map[string]*Relation)} }

// Add registers a relation, replacing any previous definition with the same
// name, and interns its attributes.
func (c *Catalog) Add(r *Relation) {
	c.rels[r.Name] = r
	internAttrs(r.Attrs())
}

// Relation returns the named relation, or nil when unknown.
func (c *Catalog) Relation(name string) *Relation { return c.rels[name] }

// Names returns the relation names in deterministic order.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.rels))
	for n := range c.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Resolve finds the relation owning an unqualified column name, returning an
// error when the name is ambiguous or unknown. Candidates restricts the
// search to the given relation names (the FROM clause of a query).
func (c *Catalog) Resolve(column string, candidates []string) (Attr, error) {
	var found []Attr
	for _, rn := range candidates {
		r := c.rels[rn]
		if r == nil {
			return Attr{}, fmt.Errorf("unknown relation %q", rn)
		}
		if r.Column(column) != nil {
			found = append(found, Attr{Rel: rn, Name: column})
		}
	}
	switch len(found) {
	case 0:
		return Attr{}, fmt.Errorf("unknown column %q", column)
	case 1:
		return found[0], nil
	default:
		return Attr{}, fmt.Errorf("ambiguous column %q (found in %s and %s)", column, found[0].Rel, found[1].Rel)
	}
}

// TypesOf returns the column type of every attribute in the catalog.
func (c *Catalog) TypesOf() map[Attr]ColType {
	out := make(map[Attr]ColType)
	for _, name := range c.Names() {
		rel := c.rels[name]
		for _, col := range rel.Columns {
			out[Attr{Rel: name, Name: col.Name}] = col.Type
		}
	}
	return out
}
