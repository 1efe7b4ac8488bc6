package main

import (
	"fmt"
	"math/rand"

	"mpq/internal/authz"
	"mpq/internal/tpch"
)

// workload is one traffic mix. Every engine.Config knob stays at its
// default; a workload fixes only the authorization scenario, the data size,
// the number of closed-loop clients, and the script the clients walk.
type workload struct {
	name     string
	scenario tpch.Scenario
	sf       float64
	// clients is the number of closed-loop callers: each issues its next
	// statement only after the previous reply arrived.
	clients int
	// tracePasses is how many passes the traced run walks. It is sized so
	// the pass holds enough statements for the layer means to settle (ad-hoc
	// latency is dominated by a random prime search) and, on the churn
	// workload, one cycle per rotated relation.
	tracePasses int
	// pass returns the k-th pass of one client: the unit the timed phase
	// repeats whole, so every run measures the same statement mix however
	// fast the engine is.
	pass func(seed int64, client, k int) []step
}

// step is one action of a pass: a query, or a policy write that rides
// beside the reads.
type step struct {
	op    opKind
	query int    // TPC-H query number the statement derives from
	sql   string // opQuery
	rel   string // opRevoke, opGrant: the relation whose 'any' rule changes
}

type opKind int

const (
	opQuery opKind = iota
	opRevoke
	opGrant
)

// The four workloads. Scale factors are the largest at which the slowest
// workload still fits two whole passes and its cold set-up pass into one
// benchmark run; see README.md for what each one stresses and why.
var workloads = []workload{
	{
		name: "ua_hot", scenario: tpch.UA, sf: 0.01, clients: 2, tracePasses: 3,
		pass: func(seed int64, client, _ int) []step { return shuffled(seed, client) },
	},
	{
		// Below sf 0.0004 the optimizer stops outsourcing Q1, and with it
		// the 4-column Paillier encryption this workload exists to show.
		name: "uapenc_hot", scenario: tpch.UAPenc, sf: 0.0004, clients: 1, tracePasses: 1,
		// In query order whatever the seed: every hit on a plan with Paillier
		// keys starts a background randomizer refill that the next few light
		// queries then share the cores with, so the order decides which of
		// them run slow, and a seed-shuffled order moved lat_p50_ms by 20 %.
		pass: func(int64, int, int) []step { return tpchSteps() },
	},
	{
		name: "uapmix_adhoc", scenario: tpch.UAPmix, sf: 0.001, clients: 1, tracePasses: 12,
		pass: func(seed int64, _, k int) []step { return adhocPass(seed, k) },
	},
	{
		name: "uapmix_churn", scenario: tpch.UAPmix, sf: 0.001, clients: 1, tracePasses: len(churnRelations),
		pass: func(_ int64, _, k int) []step { return churnCycle(k) },
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// tpchSteps is the 22-query TPC-H list in query order.
func tpchSteps() []step {
	qs := tpch.Queries()
	steps := make([]step, len(qs))
	for i, q := range qs {
		steps[i] = step{op: opQuery, query: q.Num, sql: q.SQL}
	}
	return steps
}

// shuffled is the 22-query TPC-H list in an order fixed by the seed and the
// client, so concurrent clients do not march through the list in step.
func shuffled(seed int64, client int) []step {
	steps := tpchSteps()
	rnd := rand.New(rand.NewSource(seed*31 + int64(client)))
	rnd.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	return steps
}

// Churn cadence: a cycle of churnCycleLen hot queries with the 'any' rule of
// one relation revoked before query 0 and restored before query
// churnGrantAt. Each write flushes the plan cache, so the first four queries
// after it re-prepare: 8 misses in 32, half of them planned under the
// revoked state.
const (
	churnCycleLen = 32
	churnGrantAt  = 8
)

var (
	churnMix       = []int{3, 6, 10, 12}
	churnRelations = []string{"lineitem", "orders", "customer"}
)

func churnCycle(k int) []step {
	n := len(churnRelations)
	rel := churnRelations[(k%n+n)%n] // the warm-up is pass -1
	all := tpchSteps()               // query n is all[n-1]
	steps := make([]step, 0, churnCycleLen+2)
	for i := 0; i < churnCycleLen; i++ {
		switch i {
		case 0:
			steps = append(steps, step{op: opRevoke, rel: rel})
		case churnGrantAt:
			steps = append(steps, step{op: opGrant, rel: rel})
		}
		steps = append(steps, all[churnMix[i%len(churnMix)]-1])
	}
	return steps
}

// anyRule returns the plaintext and encrypted attribute names the scenario
// grants providers on rel: what a churn cycle's grant step restores.
func anyRule(pol *authz.Policy, rel string) (plain, enc []string) {
	rule := pol.Rule(rel, authz.Any)
	for _, a := range rule.Plain.Sorted() {
		plain = append(plain, a.Name)
	}
	for _, a := range rule.Enc.Sorted() {
		enc = append(enc, a.Name)
	}
	return plain, enc
}
