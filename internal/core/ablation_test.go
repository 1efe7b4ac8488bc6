package core

import (
	"sort"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/authz"
	"mpq/internal/profile"
)

// Section 5 discusses two extreme strategies for placing encryption that
// the paper's flexible approach (candidates first, minimal extension after
// assignment) improves upon. This file implements both extremes so they can
// be compared experimentally (BenchmarkAblationStrategies):
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

// TestMaxVisibilityCandidatesAreSubsets checks that disabling encryption
// can only shrink candidate sets: Λ_plain(n) ⊆ Λ(n) (encryption enlarges
// the space of authorized assignees — the point of Section 5).
func TestMaxVisibilityCandidatesAreSubsets(t *testing.T) {
	sys := exampleSystem()
	root, nodes := examplePlan()
	an := sys.Analyze(root, nil)
	anMax := sys.AnalyzeMaxVisibility(root)

	for name, n := range nodes {
		if len(n.Children()) == 0 {
			continue
		}
		lam := map[authz.Subject]bool{}
		for _, s := range an.Candidates[n] {
			lam[s] = true
		}
		for _, s := range anMax.Candidates[n] {
			if !lam[s] {
				t.Errorf("%s: %s in Λ_plain but not in Λ", name, s)
			}
		}
	}
	// Concretely: without encryption the join loses X and Z (encrypted-only
	// view of S or P) and keeps only subjects with plaintext S, C.
	joinMax := map[authz.Subject]bool{}
	for _, s := range anMax.Candidates[nodes["join"]] {
		joinMax[s] = true
	}
	if joinMax["X"] {
		t.Errorf("X should not be a plaintext candidate for the join")
	}
	if !joinMax["U"] {
		t.Errorf("U must remain a plaintext candidate")
	}
}

// TestExtendMinVisibilityAuthorizedButHeavier checks that the
// minimizing-visibility extension is authorized for the same assignment and
// encrypts a superset of the attributes of the minimal extension
// (Theorem 5.3 ii, with the minimum required views as the "other" plan).
func TestExtendMinVisibilityAuthorizedButHeavier(t *testing.T) {
	sys := exampleSystem()
	root, nodes := examplePlan()
	an := sys.Analyze(root, nil)
	lambda := Assignment{
		nodes["sel"]: "H", nodes["join"]: "X", nodes["grp"]: "X", nodes["hav"]: "Y",
	}
	minimal, err := sys.Extend(an, lambda)
	if err != nil {
		t.Fatal(err)
	}
	maximal, err := sys.ExtendMinVisibility(an, lambda)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckAssignment(maximal.Root, maximal.Assign); err != nil {
		t.Fatalf("min-visibility extension not authorized: %v", err)
	}

	encOf := func(root algebra.Node) algebra.AttrSet {
		out := algebra.NewAttrSet()
		algebra.PostOrder(root, func(n algebra.Node) {
			if e, ok := n.(*algebra.Encrypt); ok {
				out.Add(e.Attrs...)
			}
		})
		return out
	}
	minAttrs, maxAttrs := encOf(minimal.Root), encOf(maximal.Root)
	if !minAttrs.SubsetOf(maxAttrs) {
		t.Errorf("minimal encrypts %v, not a subset of maximal %v", minAttrs, maxAttrs)
	}
	if maxAttrs.Len() <= minAttrs.Len() {
		t.Errorf("min-visibility should encrypt strictly more: %v vs %v", maxAttrs, minAttrs)
	}
	// Both plans compute relations with identical visible schemas at the
	// root (encryption state may differ).
	if !algebra.SchemaSet(minimal.Root).Equal(algebra.SchemaSet(maximal.Root)) {
		t.Errorf("schemas diverge")
	}
}

// TestExtendMinVisibilityRejectsNonCandidate mirrors Extend's validation.
func TestExtendMinVisibilityRejectsNonCandidate(t *testing.T) {
	sys := exampleSystem()
	root, nodes := examplePlan()
	an := sys.Analyze(root, nil)
	lambda := Assignment{
		nodes["sel"]: "H", nodes["join"]: "I", nodes["grp"]: "U", nodes["hav"]: "U",
	}
	if _, err := sys.ExtendMinVisibility(an, lambda); err == nil {
		t.Errorf("non-candidate accepted")
	}
}

// TestMaxVisibilityProfilesArePlain checks the ablation analysis reuses the
// plain profiles (no encrypted components anywhere).
func TestMaxVisibilityProfilesArePlain(t *testing.T) {
	sys := exampleSystem()
	root, _ := examplePlan()
	an := sys.AnalyzeMaxVisibility(root)
	algebra.PostOrder(root, func(n algebra.Node) {
		pr := an.MinResult[n]
		if !pr.VE.Empty() || !pr.IE.Empty() {
			t.Errorf("%s: encrypted components in max-visibility profile: %v", n.Op(), pr)
		}
	})
}
