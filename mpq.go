// Package mpq is a from-scratch Go implementation of "An Authorization
// Model for Multi-Provider Queries" (De Capitani di Vimercati, Foresti,
// Jajodia, Livraga, Paraboschi, Samarati — PVLDB): a model for controlled,
// collaborative query execution in the cloud where data authorities grant
// per-attribute plaintext/encrypted/no visibility, and a query optimizer
// assigns operations to users, authorities, and providers, injecting
// encryption and decryption on the fly so that every assignment obeys the
// authorizations.
//
// The top-level package re-exports the main entry points; the full API
// lives in the internal packages:
//
//	internal/sql        SQL lexer/parser for the paper's query fragment
//	internal/algebra    relational algebra plans, catalog, statistics
//	internal/planner    SQL → algebra with pushdown (the optimizer substrate)
//	internal/profile    relation profiles and Figure 2 propagation (§3)
//	internal/authz      authorizations [P,E]→S and Definitions 4.1/4.2 (§2,4)
//	internal/core       minimum views, candidates Λ, minimal extension, keys (§5,6)
//	internal/assignment cost-minimizing assignment (DP + exact refinement)
//	internal/cost       the economic model of §7
//	internal/crypto     deterministic/randomized AES, Paillier, OPE (batched, CRT fixed-base randomizers)
//	internal/exec       execution engine, incl. computation over ciphertexts
//	internal/dispatch   Figure 8 sub-queries, signed/sealed envelopes
//	internal/distsim    distributed execution simulation (streaming fragment workers + a materializing reference)
//	internal/engine     long-lived concurrent query service: plan cache, versioned authz
//	internal/tpch       the §7 workload: schema, generator, 22 queries, scenarios
//
// The cmd directory holds the executables: cmd/mpqd serves queries over
// HTTP/JSON on a long-lived engine and cmd/authqry explains authorization
// decisions; go test -v -run TestCostExperimentShape ./internal/tpch
// reproduces the Section 7 economic evaluation. The bench directory is the repository's benchmark
// (BENCHMARK.json, bash bench/run.sh).
package mpq

import (
	"mpq/internal/algebra"
	"mpq/internal/assignment"
	"mpq/internal/authz"
	"mpq/internal/core"
	"mpq/internal/cost"
	"mpq/internal/planner"
)

// Re-exported core types.
type (
	// Subject identifies a user, data authority, or provider.
	Subject = authz.Subject
	// Policy is a set of [P,E]→S authorizations.
	Policy = authz.Policy
	// Catalog describes the base relations and their statistics.
	Catalog = algebra.Catalog
	// Relation is one catalog entry.
	Relation = algebra.Relation
	// Column is one relation column.
	Column = algebra.Column
	// System bundles policy, subjects, and crypto capabilities.
	System = core.System
	// Analysis carries profiles, minimum views, and candidate sets.
	Analysis = core.Analysis
	// Assignment maps operations to executing subjects (λ).
	Assignment = core.Assignment
	// ExtendedPlan is a minimally extended authorized plan with keys.
	ExtendedPlan = core.ExtendedPlan
	// Model is the economic cost model.
	Model = cost.Model
	// Result is an optimized assignment with its extension and cost.
	Result = assignment.Result
	// Plan is a planned query.
	Plan = planner.Plan
)

// Any is the default-authorization subject.
const Any = authz.Any

// NewPolicy returns an empty authorization policy.
func NewPolicy() *Policy { return authz.NewPolicy() }

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return algebra.NewCatalog() }

// NewSystem builds an authorization system over a policy for the given
// subjects, with the paper's default cryptographic capabilities.
func NewSystem(p *Policy, subjects ...Subject) *System { return core.NewSystem(p, subjects...) }

// PlanQuery parses and plans a SQL query against a catalog.
func PlanQuery(cat *Catalog, query string) (*Plan, error) {
	return planner.New(cat).PlanSQL(query)
}

// NewPaperModel builds the Section 7 price/network configuration.
func NewPaperModel(user Subject, authorities, providers []Subject) *Model {
	return cost.NewPaperModel(user, authorities, providers)
}

// Optimize computes the cheapest authorized assignment of a planned query
// and the minimally extended plan realizing it.
func Optimize(sys *System, plan *Plan, m *Model) (*Result, error) {
	an := sys.Analyze(plan.Root, nil)
	return assignment.Optimize(sys, an, m, assignment.Options{})
}
