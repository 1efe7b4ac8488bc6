package algebra

import (
	"fmt"
	"strings"
)

// PostOrder visits the plan tree bottom-up (children before parents),
// invoking fn on every node.
func PostOrder(n Node, fn func(Node)) {
	for _, c := range n.Children() {
		PostOrder(c, fn)
	}
	fn(n)
}

// PreOrder visits the plan tree top-down, invoking fn on every node.
func PreOrder(n Node, fn func(Node)) {
	fn(n)
	for _, c := range n.Children() {
		PreOrder(c, fn)
	}
}

// CountNodes returns the number of nodes in the tree.
func CountNodes(root Node) int {
	n := 0
	PostOrder(root, func(Node) { n++ })
	return n
}

// Rebuild reconstructs a node with new children, preserving its operator and
// annotations. The number of replacement children must match. It is used by
// the plan-extension step, which splices encryption and decryption nodes
// between existing operators.
func Rebuild(n Node, children []Node) Node {
	switch x := n.(type) {
	case *Base:
		if len(children) != 0 {
			panic("algebra: Rebuild of Base with children")
		}
		return x
	case *Project:
		return &Project{Child: one(children), Attrs: x.Attrs, stats: x.stats}
	case *Select:
		return &Select{Child: one(children), Pred: x.Pred, stats: x.stats}
	case *Product:
		l, r := two(children)
		return &Product{L: l, R: r, stats: x.stats}
	case *Join:
		l, r := two(children)
		return &Join{L: l, R: r, Cond: x.Cond, stats: x.stats}
	case *GroupBy:
		return &GroupBy{Child: one(children), Keys: x.Keys, Aggs: x.Aggs, stats: x.stats}
	case *UDF:
		return &UDF{Child: one(children), Name: x.Name, Args: x.Args, Out: x.Out, stats: x.stats}
	case *Encrypt:
		return &Encrypt{Child: one(children), Attrs: x.Attrs, Schemes: x.Schemes, KeyIDs: x.KeyIDs}
	case *Decrypt:
		return &Decrypt{Child: one(children), Attrs: x.Attrs, KeyIDs: x.KeyIDs}
	}
	panic(fmt.Sprintf("algebra: Rebuild of unknown node type %T", n))
}

func one(children []Node) Node {
	if len(children) != 1 {
		panic(fmt.Sprintf("algebra: expected 1 child, got %d", len(children)))
	}
	return children[0]
}

func two(children []Node) (Node, Node) {
	if len(children) != 2 {
		panic(fmt.Sprintf("algebra: expected 2 children, got %d", len(children)))
	}
	return children[0], children[1]
}

// Format renders the plan tree as an indented multi-line string, with one
// line per node. annotate, when non-nil, may append extra text per node
// (profiles, candidates, assignees).
func Format(root Node, annotate func(Node) string) string {
	var sb strings.Builder
	var rec func(n Node, depth int)
	rec = func(n Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.Op())
		if annotate != nil {
			if extra := annotate(n); extra != "" {
				sb.WriteString("   ")
				sb.WriteString(extra)
			}
		}
		sb.WriteString("\n")
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(root, 0)
	return sb.String()
}

// IsDescendant reports whether d is a (proper or improper) descendant of n.
func IsDescendant(n, d Node) bool {
	if n == d {
		return true
	}
	for _, c := range n.Children() {
		if IsDescendant(c, d) {
			return true
		}
	}
	return false
}
