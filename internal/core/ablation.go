package core

import (
	"sort"

	"mpq/internal/algebra"
	"mpq/internal/authz"
	"mpq/internal/profile"
)

// Section 5 discusses two extreme strategies for placing encryption that
// the paper's flexible approach (candidates first, minimal extension after
// assignment) improves upon. This file implements both extremes so they can
// be compared experimentally (the ablation benchmarks):
//
//   - maximizing visibility: data stay plaintext; encryption is never used,
//     so an operation can only be assigned to subjects with plaintext
//     authorization over everything involved — fewer candidates;
//   - minimizing visibility: everything is encrypted at the sources except
//     what operations need in plaintext (the minimum required views are
//     materialized verbatim), maximizing candidates but paying encryption
//     for every attribute whether or not the chosen assignees need it.

// AnalyzeMaxVisibility computes candidate sets under the
// maximizing-visibility strategy: no encryption is available, so Definition
// 4.2 is evaluated over the plain profiles of the original plan.
func (s *System) AnalyzeMaxVisibility(root algebra.Node) *Analysis {
	an := &Analysis{
		Root:       root,
		Reqs:       make(PlaintextReqs),
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
		an.MinResult[n] = an.Profiles[n]
		children := n.Children()
		if len(children) == 0 {
			return
		}
		operands := make([]profile.Profile, len(children))
		for i, c := range children {
			operands[i] = an.Profiles[c]
		}
		an.MinViews[n] = operands
		an.Reqs[n] = algebra.NewAttrSet()
		var cands []authz.Subject
		for _, subj := range s.Subjects {
			if an.Views[subj].AuthorizedAssignee(operands, an.Profiles[n]) {
				cands = append(cands, subj)
			}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
		an.Candidates[n] = cands
	})
	return an
}

// ExtendMinVisibility builds the minimizing-visibility extension for an
// assignment: on every operand edge, every visible plaintext attribute
// outside the consumer's plaintext requirements is encrypted (the minimum
// required view materialized), and required attributes are decrypted. The
// assignment must still draw from Λ.
func (s *System) ExtendMinVisibility(an *Analysis, lambda Assignment) (*ExtendedPlan, error) {
	for n := range an.Candidates {
		subj, ok := lambda[n]
		if !ok {
			continue
		}
		if !containsSubject(an.Candidates[n], subj) {
			return nil, errNotCandidate(subj, n, an.Candidates[n])
		}
	}
	ext := &ExtendedPlan{
		Assign:   make(Assignment),
		Schemes:  make(map[algebra.Attr]algebra.Scheme),
		Profiles: make(map[algebra.Node]profile.Profile),
		Source:   make(map[algebra.Node]algebra.Node),
	}
	var build func(n algebra.Node) (algebra.Node, profile.Profile)
	build = func(n algebra.Node) (algebra.Node, profile.Profile) {
		children := n.Children()
		if len(children) == 0 {
			pr := an.Profiles[n]
			ext.Profiles[n] = pr
			ext.Source[n] = n
			return n, pr
		}
		subj := lambda[n]
		ap := an.Reqs[n]
		newChildren := make([]algebra.Node, len(children))
		childProfiles := make([]profile.Profile, len(children))
		for i, c := range children {
			cNode, cProf := build(c)
			encSet := cProf.VP.Diff(ap)
			if !encSet.Empty() {
				cNode, cProf = s.addEncrypt(ext, cNode, cProf, encSet, lambda.Executor(c), c)
			}
			decSet := ap.Intersect(cProf.VE)
			if !decSet.Empty() {
				cNode, cProf = s.addDecrypt(ext, cNode, cProf, decSet, subj, n)
			}
			newChildren[i] = cNode
			childProfiles[i] = cProf
		}
		out := algebra.Rebuild(n, newChildren)
		pr := profile.ForNode(out, childProfiles)
		ext.Assign[out] = subj
		ext.Profiles[out] = pr
		ext.Source[out] = n
		return out, pr
	}
	root, _ := build(an.Root)
	ext.Root = root
	if err := s.chooseSchemes(ext); err != nil {
		return nil, err
	}
	s.establishKeys(ext)
	return ext, nil
}

func errNotCandidate(subj authz.Subject, n algebra.Node, cands []authz.Subject) error {
	return &notCandidateError{subj: subj, op: n.Op(), cands: cands}
}

type notCandidateError struct {
	subj  authz.Subject
	op    string
	cands []authz.Subject
}

func (e *notCandidateError) Error() string {
	return "core: " + string(e.subj) + " is not a candidate for " + e.op
}
