package algebra

// Less orders attributes lexicographically (relation first, then name).
func (a Attr) Less(b Attr) bool { return compareAttrs(a, b) < 0 }

// Nodes returns every node of the tree in post-order.
func Nodes(root Node) []Node {
	var out []Node
	PostOrder(root, func(n Node) { out = append(out, n) })
	return out
}

// EqualityOnly reports whether every basic comparison in p is an equality.
// Deterministic encryption supports only equality; range predicates need an
// order-preserving scheme.
func EqualityOnly(p Pred) bool {
	ok := true
	WalkPred(p, func(q Pred) {
		switch x := q.(type) {
		case *CmpAV:
			if !x.Op.IsEquality() {
				ok = false
			}
		case *CmpAA:
			if !x.Op.IsEquality() {
				ok = false
			}
		}
	})
	return ok
}
