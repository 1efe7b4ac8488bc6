package profile

import (
	"fmt"

	"mpq/internal/algebra"
)

// VisibilityError reports an operation whose operands do not satisfy its
// visibility requirements: a condition over an attribute that is not
// visible, or a comparison between attributes that are not uniformly
// plaintext or uniformly encrypted.
type VisibilityError struct {
	Node algebra.Node
	Msg  string
}

// Error implements the error interface.
func (e *VisibilityError) Error() string {
	return fmt.Sprintf("visibility error at %s: %s", e.Node.Op(), e.Msg)
}

// ForNode computes the profile of the relation produced by node n from the
// profiles of its operands, applying the Figure 2 rule for n's operator.
func ForNode(n algebra.Node, operands []Profile) Profile {
	switch x := n.(type) {
	case *algebra.Base:
		return Encrypt(ForBase(x.Attrs), x.EncSet())
	case *algebra.Project:
		return Project(operands[0], x.Attrs)
	case *algebra.Select:
		return Select(operands[0], x.Pred)
	case *algebra.Product:
		return Product(operands[0], operands[1])
	case *algebra.Join:
		return Join(operands[0], operands[1], x.Cond)
	case *algebra.GroupBy:
		return GroupBy(operands[0], x.Keys, x.AggAttrs())
	case *algebra.UDF:
		return UDF(operands[0], x.Args, x.Out)
	case *algebra.Encrypt:
		return Encrypt(operands[0], algebra.NewAttrSet(x.Attrs...))
	case *algebra.Decrypt:
		return Decrypt(operands[0], algebra.NewAttrSet(x.Attrs...))
	}
	panic(fmt.Sprintf("profile: unknown node type %T", n))
}

// ForPlan computes the profile of every node of the plan in one post-order
// pass, returning a map keyed by node.
func ForPlan(root algebra.Node) map[algebra.Node]Profile {
	out := make(map[algebra.Node]Profile)
	algebra.PostOrder(root, func(n algebra.Node) {
		ops := make([]Profile, 0, 2)
		for _, c := range n.Children() {
			ops = append(ops, out[c])
		}
		out[n] = ForNode(n, ops)
	})
	return out
}

// Validate checks that every operation of the plan satisfies its operand
// visibility requirements given the computed profiles:
//   - an attribute mentioned by a condition, grouping, projection, or udf
//     must be visible (plaintext or encrypted) in the operand;
//   - attributes compared by an 'ai op aj' condition must be both plaintext
//     or both encrypted (Section 3.2).
//
// It returns the first violation found, or nil.
func Validate(root algebra.Node) error {
	profiles := ForPlan(root)
	var firstErr error
	algebra.PostOrder(root, func(n algebra.Node) {
		if firstErr != nil {
			return
		}
		children := n.Children()
		ops := make([]Profile, len(children))
		for i, c := range children {
			ops[i] = profiles[c]
		}
		if err := validateNode(n, ops); err != nil {
			firstErr = err
		}
	})
	return firstErr
}

func validateNode(n algebra.Node, ops []Profile) error {
	var visible algebra.AttrSet
	for _, p := range ops {
		visible = visible.Union(p.Visible())
	}
	requireVisible := func(attrs ...algebra.Attr) error {
		for _, a := range attrs {
			if algebra.IsSynthetic(a) {
				continue
			}
			if !visible.Has(a) {
				return &VisibilityError{Node: n, Msg: fmt.Sprintf("attribute %s is not visible in the operand", a)}
			}
		}
		return nil
	}
	uniformPairs := func(pred algebra.Pred) error {
		merged := mergeProfiles(ops)
		for _, pair := range algebra.AttrPairs(pred) {
			l, r := pair[0], pair[1]
			lp, le := merged.VP.Has(l), merged.VE.Has(l)
			rp, re := merged.VP.Has(r), merged.VE.Has(r)
			if (lp && re && !rp) || (le && !lp && rp) {
				return &VisibilityError{Node: n, Msg: fmt.Sprintf(
					"condition %s %s requires both attributes plaintext or both encrypted", l, r)}
			}
		}
		return nil
	}

	switch x := n.(type) {
	case *algebra.Base:
		return nil
	case *algebra.Project:
		return requireVisible(x.Attrs...)
	case *algebra.Select:
		if err := requireVisible(x.Pred.Attrs().Sorted()...); err != nil {
			return err
		}
		return uniformPairs(x.Pred)
	case *algebra.Product:
		return nil
	case *algebra.Join:
		if err := requireVisible(x.Cond.Attrs().Sorted()...); err != nil {
			return err
		}
		return uniformPairs(x.Cond)
	case *algebra.GroupBy:
		if err := requireVisible(x.Keys...); err != nil {
			return err
		}
		return requireVisible(x.AggAttrs().Sorted()...)
	case *algebra.UDF:
		// The udf inputs must be uniformly visible: all plaintext or all
		// encrypted (Section 3.2 treats udf inputs like compared attributes).
		if err := requireVisible(x.Args...); err != nil {
			return err
		}
		merged := mergeProfiles(ops)
		anyP, anyE := false, false
		for _, a := range x.Args {
			if merged.VP.Has(a) {
				anyP = true
			}
			if merged.VE.Has(a) {
				anyE = true
			}
		}
		if anyP && anyE {
			return &VisibilityError{Node: n, Msg: "udf inputs must be all plaintext or all encrypted"}
		}
		return nil
	case *algebra.Encrypt:
		for _, a := range x.Attrs {
			if !ops[0].VP.Has(a) {
				return &VisibilityError{Node: n, Msg: fmt.Sprintf("cannot encrypt %s: not visible plaintext", a)}
			}
		}
		return nil
	case *algebra.Decrypt:
		for _, a := range x.Attrs {
			if !ops[0].VE.Has(a) {
				return &VisibilityError{Node: n, Msg: fmt.Sprintf("cannot decrypt %s: not visible encrypted", a)}
			}
		}
		return nil
	}
	return nil
}

func mergeProfiles(ops []Profile) Profile {
	switch len(ops) {
	case 0:
		return New()
	case 1:
		return ops[0]
	default:
		return Product(ops[0], ops[1])
	}
}
