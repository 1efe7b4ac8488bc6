package core

import (
	"fmt"
	"strings"

	"mpq/internal/algebra"
	"mpq/internal/authz"
	"mpq/internal/profile"
)

// CheckAssignment verifies that assign is an authorized assignment function
// for the (possibly extended) plan rooted at root (Definition 4.2): every
// non-leaf node has an assignee authorized for its operands and its result,
// and the plan satisfies its operand visibility requirements. It returns
// nil when the assignment is authorized.
func (s *System) CheckAssignment(root algebra.Node, assign Assignment) error {
	if err := profile.Validate(root); err != nil {
		return err
	}
	profiles := profile.ForPlan(root)
	views := make(map[authz.Subject]authz.View)
	var firstErr error
	algebra.PostOrder(root, func(n algebra.Node) {
		if firstErr != nil {
			return
		}
		children := n.Children()
		if len(children) == 0 {
			// A relation hosted away from its authority: the storage
			// provider must be authorized for the stored form.
			if b, isBase := n.(*algebra.Base); isBase && b.Storage != "" && b.Storage != b.Authority {
				host := authz.Subject(b.Storage)
				view, ok := views[host]
				if !ok {
					view = s.Policy.View(host)
					views[host] = view
				}
				if err := view.Check(profiles[n]); err != nil {
					firstErr = fmt.Errorf("core: storage provider %s not authorized to host %s: %w", host, b.Name, err)
				}
			}
			return
		}
		subj, ok := assign[n]
		if !ok {
			firstErr = fmt.Errorf("core: no assignee for %s", n.Op())
			return
		}
		view, ok := views[subj]
		if !ok {
			view = s.Policy.View(subj)
			views[subj] = view
		}
		for _, c := range children {
			if err := view.Check(profiles[c]); err != nil {
				firstErr = fmt.Errorf("core: %s cannot operate %s: operand %s: %w", subj, n.Op(), c.Op(), err)
				return
			}
		}
		if err := view.Check(profiles[n]); err != nil {
			firstErr = fmt.Errorf("core: %s cannot operate %s: result: %w", subj, n.Op(), err)
		}
	})
	return firstErr
}

// CheckPlaintextAvailability verifies that, in the extended plan, every
// operation finds the attributes it requires in plaintext actually
// decrypted in its operands. reqs must be expressed against the original
// plan nodes; source maps extended nodes back to them.
func CheckPlaintextAvailability(root algebra.Node, reqs PlaintextReqs, source map[algebra.Node]algebra.Node) error {
	profiles := profile.ForPlan(root)
	var firstErr error
	algebra.PostOrder(root, func(n algebra.Node) {
		if firstErr != nil {
			return
		}
		switch n.(type) {
		case *algebra.Encrypt, *algebra.Decrypt, *algebra.Base:
			return
		}
		orig := n
		if source != nil {
			if o, ok := source[n]; ok {
				orig = o
			}
		}
		ap := reqs[orig]
		if ap.Empty() {
			return
		}
		var visible algebra.AttrSet
		for _, c := range n.Children() {
			visible = visible.Union(profiles[c].VP)
		}
		if bad := ap.Diff(visible); !bad.Empty() {
			firstErr = fmt.Errorf("core: %s requires plaintext %s but operands provide %s", n.Op(), bad, visible)
		}
	})
	return firstErr
}

// Format renders an analysis (or an extended plan, when ext is non-nil) as
// an indented tree annotated with assignees, candidates, and profiles —
// the textual equivalent of Figures 3, 6 and 7 of the paper.
func (an *Analysis) Format(ext *ExtendedPlan) string {
	var root algebra.Node
	if ext != nil {
		root = ext.Root
	} else {
		root = an.Root
	}
	return algebra.Format(root, func(n algebra.Node) string {
		var parts []string
		if ext != nil {
			if s, ok := ext.Assign[n]; ok {
				parts = append(parts, "@"+string(s))
			}
			parts = append(parts, ext.Profiles[n].String())
		} else {
			if cands, ok := an.Candidates[n]; ok {
				names := make([]string, len(cands))
				for i, c := range cands {
					names[i] = string(c)
				}
				parts = append(parts, "Λ={"+strings.Join(names, ",")+"}")
			}
			parts = append(parts, an.MinResult[n].String())
		}
		return strings.Join(parts, "  ")
	})
}
