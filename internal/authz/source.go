package authz

import (
	"sort"
	"sync"
)

// Section 6 closes with an observation on authorization storage: since
// authorizations are specified per relation with no cross-authority rules,
// each data authority can either (i) publish its access control policy —
// the Policy type models the resulting global repository — or (ii) respond
// to explicit authorization requests, keeping the policy confidential. The
// types below model the second approach and the federation of both.

// Viewer produces the overall view of a subject; it is the only surface the
// query optimizer needs (Definitions 4.1/4.2 evaluate views). *Policy,
// *Requester, and *Federation all implement it.
type Viewer interface {
	View(Subject) View
}

// RequestFunc answers one authorization request against a single
// authority: the rule applying to subject on rel, or nil (no visibility).
// Implementations typically wrap a network call to the authority.
type RequestFunc func(rel string, subject Subject) *Authorization

// Requester resolves views by issuing explicit authorization requests (the
// confidential-policy approach): nothing about the policy is held locally
// beyond a response cache.
type Requester struct {
	relations []string
	request   RequestFunc

	mu    sync.Mutex
	cache map[string]map[Subject]*Authorization
}

// NewRequester builds a request-based source over the authority's
// relations. The request function is invoked at most once per
// (relation, subject); responses (including denials) are cached.
func NewRequester(relations []string, request RequestFunc) *Requester {
	rels := append([]string{}, relations...)
	sort.Strings(rels)
	return &Requester{
		relations: rels,
		request:   request,
		cache:     make(map[string]map[Subject]*Authorization),
	}
}

// Rule returns the authorization applying to subject on rel, querying the
// authority on first use.
func (r *Requester) Rule(rel string, subject Subject) *Authorization {
	r.mu.Lock()
	defer r.mu.Unlock()
	byS, ok := r.cache[rel]
	if !ok {
		byS = make(map[Subject]*Authorization)
		r.cache[rel] = byS
	}
	if rule, ok := byS[subject]; ok {
		return rule
	}
	rule := r.request(rel, subject)
	byS[subject] = rule
	return rule
}

// Relations returns the relations the authority controls.
func (r *Requester) Relations() []string {
	return append([]string{}, r.relations...)
}

// View assembles the overall view of a subject from per-relation requests.
func (r *Requester) View(subject Subject) View {
	v := View{Subject: subject}
	for _, rel := range r.relations {
		if rule := r.Rule(rel, subject); rule != nil {
			v.P = v.P.Union(rule.Plain)
			v.E = v.E.Union(rule.Enc)
		}
	}
	return v
}

// Requests reports how many distinct (relation, subject) authorization
// checks have been answered (for tests and instrumentation).
func (r *Requester) Requests() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, byS := range r.cache {
		n += len(byS)
	}
	return n
}

// Federation combines the per-authority sources into the overall view the
// optimizer consumes — the distributed storage and management of
// authorizations the paper calls "completely in line with our approach".
// Each member may be a published *Policy or a confidential *Requester.
type Federation struct {
	members []Viewer
}

// NewFederation combines authority sources.
func NewFederation(members ...Viewer) *Federation {
	return &Federation{members: append([]Viewer{}, members...)}
}

// Add appends another authority's source.
func (f *Federation) Add(m Viewer) { f.members = append(f.members, m) }

// View unions the views granted by every member authority.
func (f *Federation) View(subject Subject) View {
	v := View{Subject: subject}
	for _, m := range f.members {
		mv := m.View(subject)
		v.P = v.P.Union(mv.P)
		v.E = v.E.Union(mv.E)
	}
	return v
}
