// Package authz implements the paper's authorization model (Section 2) and
// the authorization controls over relations and operation assignments
// (Section 4): authorizations [P,E]→S at attribute granularity with three
// visibility levels (plaintext, encrypted, none), a closed policy with an
// 'any' default subject, per-subject overall views, and the authorized
// relation / authorized assignee checks of Definitions 4.1 and 4.2.
package authz

import (
	"fmt"
	"sort"
	"strings"

	"mpq/internal/algebra"
	"mpq/internal/profile"
)

// Subject identifies a user, a data authority, or a provider.
type Subject string

// Any is the default subject: an authorization granted to Any applies to
// every subject with no explicit authorization for the relation.
const Any Subject = "any"

// Authorization is a rule [P,E]→S over one relation (Definition 2.1):
// subject S may see attributes P in plaintext and attributes E encrypted.
// P and E are disjoint subsets of the relation's attributes.
type Authorization struct {
	Relation string
	Subject  Subject
	Plain    algebra.AttrSet
	Enc      algebra.AttrSet
}

// String renders the rule in the paper's [P,E]→S notation.
func (a *Authorization) String() string {
	return fmt.Sprintf("[%s, %s]→%s", names(a.Plain), names(a.Enc), a.Subject)
}

func names(s algebra.AttrSet) string {
	parts := make([]string, 0, s.Len())
	for _, a := range s.Sorted() {
		parts = append(parts, a.Name)
	}
	return strings.Join(parts, "")
}

// Policy is the collection of authorizations of all data authorities. Each
// authority specifies rules for its own relations independently; the policy
// is closed (whatever is not explicitly granted is denied).
//
// A Policy carries a monotonic version counter bumped by every successful
// Grant and Revoke. Long-lived services key derived state (cached authorized
// plans, memoized views) on the version so that a policy mutation invalidates
// everything computed under the previous authorization state. The Policy
// itself is not synchronized: callers that mutate it concurrently with reads
// must provide their own locking (internal/engine wraps it in an RWMutex).
type Policy struct {
	rules   map[string]map[Subject]*Authorization // relation → subject → rule
	version uint64
}

// NewPolicy returns an empty policy.
func NewPolicy() *Policy {
	return &Policy{rules: make(map[string]map[Subject]*Authorization)}
}

// Grant adds the authorization [plain, enc]→subject on relation rel.
// Attribute names are unqualified and are qualified against rel. It returns
// an error when plain and enc overlap or when the subject already holds an
// authorization for the relation (a subject holds at most one, Section 2).
func (p *Policy) Grant(rel string, subject Subject, plain, enc []string) error {
	var ps, es algebra.AttrSet
	for _, n := range plain {
		ps.Add(algebra.Attr{Rel: rel, Name: n})
	}
	for _, n := range enc {
		a := algebra.Attr{Rel: rel, Name: n}
		if ps.Has(a) {
			return fmt.Errorf("authz: attribute %s in both P and E for %s on %s", n, subject, rel)
		}
		es.Add(a)
	}
	byS := p.rules[rel]
	if byS == nil {
		byS = make(map[Subject]*Authorization)
		p.rules[rel] = byS
	}
	if _, dup := byS[subject]; dup {
		return fmt.Errorf("authz: subject %s already holds an authorization on %s", subject, rel)
	}
	byS[subject] = &Authorization{Relation: rel, Subject: subject, Plain: ps, Enc: es}
	p.version++
	return nil
}

// Revoke removes the authorization subject holds on rel, reporting whether
// one was present. Revoking the Any rule removes the relation's default; a
// subject with no explicit rule falls back to that default, so revoking an
// explicit rule can widen as well as narrow a subject's view.
func (p *Policy) Revoke(rel string, subject Subject) bool {
	byS := p.rules[rel]
	if byS == nil {
		return false
	}
	if _, ok := byS[subject]; !ok {
		return false
	}
	delete(byS, subject)
	if len(byS) == 0 {
		delete(p.rules, rel)
	}
	p.version++
	return true
}

// Version returns the policy's authorization-state version: a counter bumped
// by every successful Grant and Revoke since the policy was created.
func (p *Policy) Version() uint64 { return p.version }

// Clone returns a snapshot of the policy at its current version: an
// independent copy of the rule maps (Authorization values are shared — they
// are never mutated in place — so a clone is cheap). Long-running analyses
// can run against a consistent snapshot while the original policy keeps
// accepting grants and revocations.
func (p *Policy) Clone() *Policy {
	c := &Policy{
		rules:   make(map[string]map[Subject]*Authorization, len(p.rules)),
		version: p.version,
	}
	for rel, byS := range p.rules {
		m := make(map[Subject]*Authorization, len(byS))
		for s, a := range byS {
			m[s] = a
		}
		c.rules[rel] = m
	}
	return c
}

// MustGrant is Grant panicking on error, for statically-known policies.
func (p *Policy) MustGrant(rel string, subject Subject, plain, enc []string) {
	if err := p.Grant(rel, subject, plain, enc); err != nil {
		panic(err)
	}
}

// Rule returns the authorization applying to subject on rel: the subject's
// explicit rule if present, otherwise the relation's 'any' rule if present,
// otherwise nil (no visibility, closed policy).
func (p *Policy) Rule(rel string, subject Subject) *Authorization {
	byS := p.rules[rel]
	if byS == nil {
		return nil
	}
	if r, ok := byS[subject]; ok {
		return r
	}
	return byS[Any]
}

// Relations returns the relation names mentioned by the policy, sorted.
func (p *Policy) Relations() []string {
	out := make([]string, 0, len(p.rules))
	for r := range p.rules {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Subjects returns every subject explicitly mentioned by the policy
// (excluding Any), sorted.
func (p *Policy) Subjects() []Subject {
	seen := make(map[Subject]struct{})
	for _, byS := range p.rules {
		for s := range byS {
			if s != Any {
				seen[s] = struct{}{}
			}
		}
	}
	out := make([]Subject, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// View is the overall view of a subject (Section 4, Figure 4): the union,
// across relations, of the attributes the subject may access in plaintext
// (P) and in encrypted form only (E).
type View struct {
	Subject Subject
	P       algebra.AttrSet
	E       algebra.AttrSet
}

// View computes the overall view of a subject under the policy, applying
// the 'any' default per relation.
func (p *Policy) View(subject Subject) View {
	v := View{Subject: subject}
	for rel := range p.rules {
		r := p.Rule(rel, subject)
		if r == nil {
			continue
		}
		v.P = v.P.Union(r.Plain)
		v.E = v.E.Union(r.Enc)
	}
	return v
}

// String renders the view as P:... E:...
func (v View) String() string {
	return fmt.Sprintf("P%s=%s E%s=%s", v.Subject, v.P, v.Subject, v.E)
}

// DenialReason explains why a subject is not authorized for a relation.
type DenialReason struct {
	Subject   Subject
	Condition int // the violated condition of Definition 4.1 (1, 2, or 3)
	Attrs     algebra.AttrSet
}

// Error implements the error interface.
func (d *DenialReason) Error() string {
	switch d.Condition {
	case 1:
		return fmt.Sprintf("%s lacks plaintext authorization for %s", d.Subject, d.Attrs)
	case 2:
		return fmt.Sprintf("%s lacks (at least encrypted) authorization for %s", d.Subject, d.Attrs)
	default:
		return fmt.Sprintf("%s has non-uniform visibility over equivalence set %s", d.Subject, d.Attrs)
	}
}

// Check evaluates Definition 4.1: whether the subject with view v is
// authorized for a relation with profile pr. It returns nil when authorized,
// or a DenialReason naming the violated condition.
//
//  1. Rvp ∪ Rip ⊆ P_S                 (plaintext attributes authorized)
//  2. Rve ∪ Rie ⊆ P_S ∪ E_S           (encrypted attributes authorized)
//  3. ∀A ∈ R≃: A ⊆ P_S or A ⊆ E_S    (uniform visibility)
func (v View) Check(pr profile.Profile) error {
	if !pr.VP.SubsetOf(v.P) || !pr.IP.SubsetOf(v.P) {
		return &DenialReason{Subject: v.Subject, Condition: 1, Attrs: pr.VP.Union(pr.IP).Diff(v.P)}
	}
	pe := v.P.Union(v.E)
	if !pr.VE.SubsetOf(pe) || !pr.IE.SubsetOf(pe) {
		return &DenialReason{Subject: v.Subject, Condition: 2, Attrs: pr.VE.Union(pr.IE).Diff(pe)}
	}
	if A, bad := pr.Eq.First(func(A algebra.AttrSet) bool {
		return !A.SubsetOf(v.P) && !A.SubsetOf(v.E)
	}); bad {
		return &DenialReason{Subject: v.Subject, Condition: 3, Attrs: A}
	}
	return nil
}

// Authorized reports whether the subject with view v is authorized for a
// relation with profile pr (Definition 4.1).
func (v View) Authorized(pr profile.Profile) bool { return v.Check(pr) == nil }

// AuthorizedAssignee evaluates Definition 4.2: a subject is an authorized
// assignee of an operation iff it is authorized for the operand relation(s)
// and for the relation the operation produces.
func (v View) AuthorizedAssignee(operands []profile.Profile, result profile.Profile) bool {
	for _, op := range operands {
		if !v.Authorized(op) {
			return false
		}
	}
	return v.Authorized(result)
}
