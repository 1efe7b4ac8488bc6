package core

import (
	"fmt"
	"sort"

	"mpq/internal/algebra"
	"mpq/internal/authz"
	"mpq/internal/profile"
)

// System bundles the inputs of the authorization-aware optimizer: the policy
// of the data authorities, the subjects that may be involved in query
// execution, and the cryptographic capabilities of the deployment.
type System struct {
	// Policy resolves subject views: a published *authz.Policy, a
	// request-based *authz.Requester, or an *authz.Federation combining
	// per-authority sources (Section 6's storage-independence observation).
	Policy   authz.Viewer
	Subjects []authz.Subject
	Caps     Capabilities
	// Types optionally maps attributes to their column types; when set, the
	// default plaintext requirements account for scheme/domain limits (e.g.
	// OPE cannot order strings). Populate with Catalog.TypesOf.
	Types map[algebra.Attr]algebra.ColType
}

// NewSystem constructs a System with default capabilities.
func NewSystem(policy authz.Viewer, subjects ...authz.Subject) *System {
	return &System{Policy: policy, Subjects: subjects, Caps: DefaultCapabilities()}
}

// Analysis is the result of the candidate computation over a query plan:
// per-node profiles of the original plan, minimum required views
// (Definition 5.2), the result profiles assuming those views, and the
// candidate sets Λ (Definition 5.3).
type Analysis struct {
	Root     algebra.Node
	Reqs     PlaintextReqs
	Views    map[authz.Subject]authz.View
	Profiles map[algebra.Node]profile.Profile // profiles of the original plan
	// MinViews[n][i] is the profile of the minimum required view over the
	// i-th child of n for the execution of n.
	MinViews map[algebra.Node][]profile.Profile
	// MinResult[n] is the profile of n's result assuming its operands are
	// the minimum required views (the node tags of Figure 6).
	MinResult map[algebra.Node]profile.Profile
	// Candidates[n] is Λ(n), sorted, for every non-leaf node n.
	Candidates map[algebra.Node][]authz.Subject
}

// Analyze computes profiles, minimum required views, and candidate sets for
// the plan in one post-order pass. reqs may be nil, in which case the
// default requirements under the system capabilities are used.
func (s *System) Analyze(root algebra.Node, reqs PlaintextReqs) *Analysis {
	if reqs == nil {
		reqs = RequirementsTyped(root, s.Caps, s.Types)
	}
	an := &Analysis{
		Root:       root,
		Reqs:       reqs,
		Views:      make(map[authz.Subject]authz.View, len(s.Subjects)),
		Profiles:   profile.ForPlan(root),
		MinViews:   make(map[algebra.Node][]profile.Profile),
		MinResult:  make(map[algebra.Node]profile.Profile),
		Candidates: make(map[algebra.Node][]authz.Subject),
	}
	for _, subj := range s.Subjects {
		an.Views[subj] = s.Policy.View(subj)
	}

	algebra.PostOrder(root, func(n algebra.Node) {
		children := n.Children()
		if len(children) == 0 {
			// A base relation stays with its data authority; its "minimum
			// result" is its plain profile (encryption happens on the edge).
			an.MinResult[n] = an.Profiles[n]
			return
		}
		ap := reqs[n]
		mvs := make([]profile.Profile, len(children))
		for i, c := range children {
			mvs[i] = MinimumRequiredView(an.MinResult[c], ap)
		}
		an.MinViews[n] = mvs
		res := profile.ForNode(n, mvs)
		an.MinResult[n] = res

		var cands []authz.Subject
		for _, subj := range s.Subjects {
			if an.Views[subj].AuthorizedAssignee(mvs, res) {
				cands = append(cands, subj)
			}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
		an.Candidates[n] = cands
	})
	return an
}

// MinimumRequiredView applies Definition 5.2 to an operand profile: every
// visible plaintext attribute outside Ap is encrypted, and every attribute
// of Ap that is visible encrypted is decrypted.
func MinimumRequiredView(operand profile.Profile, ap algebra.AttrSet) profile.Profile {
	return profile.Decrypt(profile.Encrypt(operand, operand.VP.Diff(ap)), ap)
}

// Feasible reports whether every operation of the plan has at least one
// candidate. When it does not, the query cannot be executed under the
// policy regardless of encryption, and the error names the first operation
// with an empty candidate set.
func (an *Analysis) Feasible() error {
	var bad algebra.Node
	algebra.PostOrder(an.Root, func(n algebra.Node) {
		if bad != nil || len(n.Children()) == 0 {
			return
		}
		if len(an.Candidates[n]) == 0 {
			bad = n
		}
	})
	if bad != nil {
		return fmt.Errorf("core: no candidate subject for operation %s", bad.Op())
	}
	return nil
}

// CheckUserAccess verifies that the user requesting the query is authorized
// for every base relation that is input to the query (Section 6: the user
// must be authorized for all query inputs).
func (s *System) CheckUserAccess(user authz.Subject, root algebra.Node) error {
	view := s.Policy.View(user)
	var err error
	algebra.PostOrder(root, func(n algebra.Node) {
		if err != nil {
			return
		}
		if b, ok := n.(*algebra.Base); ok {
			if e := view.Check(profile.ForBase(b.Attrs)); e != nil {
				err = fmt.Errorf("core: user %s not authorized for base relation %s: %w", user, b.Name, e)
			}
		}
	})
	return err
}
