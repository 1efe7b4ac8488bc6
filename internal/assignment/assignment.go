// Package assignment computes cost-minimizing assignments of query plan
// operations to candidate subjects (Section 6, step 2, and Section 7). It
// uses the dynamic programming strategy of the paper's tool: the state space
// is (node, executing subject), edge costs account for data transfer and the
// on-the-fly encryption/decryption the assignment induces, and the chosen
// assignment is then materialized as a minimally extended plan whose exact
// cost is computed by the cost model.
package assignment

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"mpq/internal/algebra"
	"mpq/internal/authz"
	"mpq/internal/core"
	"mpq/internal/cost"
	"mpq/internal/sql"
)

// Result is an optimized assignment: the chosen λ, the minimally extended
// plan it induces, and its exact cost breakdown.
type Result struct {
	Lambda   core.Assignment
	Extended *core.ExtendedPlan
	Cost     cost.Breakdown
}

// Options tunes the optimizer.
type Options struct {
	// MaxSeconds, when positive, is a performance threshold: assignments
	// whose estimated wall-clock time exceeds it are rejected (Section 7:
	// cost drives the choice as long as performance stays above a
	// threshold).
	MaxSeconds float64
}

// Optimize computes the cheapest authorized assignment for the analyzed
// plan under the model, extends the plan accordingly, and prices it. A
// dynamic program over (node, candidate) states seeds λ; it prices
// operators with the cost model's own per-tuple seconds, so it is
// approximate only in what the extension decides per assignment (schemes
// and opportunistic decryption). refine then hill-climbs the seed under the
// exact cost of the minimally extended plan, combining assignment and
// encryption decisions as Section 6 prescribes when encryption is not
// negligible. Last, every uniform assignment (all operations at one subject
// that is a candidate everywhere, the user included) is priced once and
// wins if strictly cheaper: the provider-free solution therefore stays
// reachable, so adding provider authorizations can never increase the
// optimized cost. Within one call each distinct λ is extended (without keys)
// and priced once. Only the winner is extended with keys and priced in
// full; its pre-shuffle partial aggregation edges are marked last
// (core.MarkPartials), so every caller executes the same plan; they do not
// enter the cost.
func Optimize(sys *core.System, an *core.Analysis, m *cost.Model, opts Options) (*Result, error) {
	if err := an.Feasible(); err != nil {
		return nil, err
	}
	p := &pricer{sys: sys, an: an, m: m, memo: make(map[string]float64)}
	algebra.PostOrder(an.Root, func(n algebra.Node) {
		if len(n.Children()) > 0 {
			p.ops = append(p.ops, n)
		}
	})
	lambda := chooseAssignmentBy(sys, an, m, false)
	best, err := p.refine(lambda)
	if err != nil {
		return nil, err
	}
	for _, uniform := range uniformAssignments(an, p.ops) {
		total, err := p.total(uniform)
		if err != nil {
			return nil, err
		}
		if total < best {
			lambda, best = uniform, total
		}
	}
	ext, br, err := priceExtended(sys, an, m, lambda)
	if err != nil {
		return nil, err
	}
	if opts.MaxSeconds > 0 && br.Seconds > opts.MaxSeconds {
		// Fall back to the assignment minimizing time instead of cost.
		lambda = chooseAssignmentBy(sys, an, m, true)
		if ext, br, err = priceExtended(sys, an, m, lambda); err != nil {
			return nil, err
		}
		if br.Seconds > opts.MaxSeconds {
			return nil, fmt.Errorf("assignment: no assignment meets the %.1fs performance threshold (best %.1fs)",
				opts.MaxSeconds, br.Seconds)
		}
	}
	sys.MarkPartials(ext)
	return &Result{Lambda: lambda, Extended: ext, Cost: br}, nil
}

// priceExtended extends the plan under lambda, keys included, and prices it.
func priceExtended(sys *core.System, an *core.Analysis, m *cost.Model, lambda core.Assignment) (*core.ExtendedPlan, cost.Breakdown, error) {
	ext, err := sys.Extend(an, lambda)
	if err != nil {
		return nil, cost.Breakdown{}, err
	}
	return ext, cost.OfPlan(ext.Root, ext.Assign.Executor, ext.Schemes, ext.Profiles, m), nil
}

// uniformAssignments returns, in the first operation's candidate order, one
// assignment per subject that is a candidate of every operation in ops,
// placing all of them at that subject.
func uniformAssignments(an *core.Analysis, ops []algebra.Node) []core.Assignment {
	if len(ops) == 0 {
		return nil
	}
	var out []core.Assignment
next:
	for _, s := range an.Candidates[ops[0]] {
		lambda := make(core.Assignment, len(ops))
		for _, n := range ops {
			if !slices.Contains(an.Candidates[n], s) {
				continue next
			}
			lambda[n] = s
		}
		out = append(out, lambda)
	}
	return out
}

// pricedHook, when non-nil, is called with every assignment a pricer
// extends. Only tests set it, to count whole-plan extensions.
var pricedHook func(core.Assignment)

// pricer memoises, for one Optimize call, the exact cost of each λ it has
// priced, keyed by λ over the plan's operations in post-order. The cost is a
// pure function of λ for a fixed Analysis and model, so a memoised total
// equals a recomputed one bit for bit, and nothing outlives the call.
type pricer struct {
	sys  *core.System
	an   *core.Analysis
	m    *cost.Model
	ops  []algebra.Node
	memo map[string]float64
	key  []byte
}

func (p *pricer) total(lambda core.Assignment) (float64, error) {
	p.key = p.key[:0]
	for _, n := range p.ops {
		p.key = binary.AppendUvarint(p.key, uint64(len(lambda[n])))
		p.key = append(p.key, lambda[n]...)
	}
	if t, ok := p.memo[string(p.key)]; ok {
		return t, nil
	}
	if pricedHook != nil {
		pricedHook(lambda)
	}
	ext, err := p.sys.ExtendUnkeyed(p.an, lambda)
	if err != nil {
		return 0, err
	}
	t := cost.OfPlan(ext.Root, ext.Assign.Executor, ext.Schemes, ext.Profiles, p.m).Total()
	p.memo[string(p.key)] = t
	return t, nil
}

// refine hill-climbs lambda in place under the exact cost: for each
// operation in post-order it tries every candidate while holding the rest
// fixed, keeping a trial only when it cuts the cost by more than a relative
// 1e-9, until a sweep makes no progress or 8 sweeps have run. It returns
// the cost of the final lambda.
func (p *pricer) refine(lambda core.Assignment) (float64, error) {
	best, err := p.total(lambda)
	if err != nil {
		return 0, err
	}
	const maxSweeps = 8
	for sweep := 0; sweep < maxSweeps; sweep++ {
		improved := false
		for _, n := range p.ops {
			cur := lambda[n]
			for _, s := range p.an.Candidates[n] {
				if s == cur {
					continue
				}
				lambda[n] = s
				t, err := p.total(lambda)
				if err != nil {
					lambda[n] = cur
					return 0, err
				}
				if t < best*(1-1e-9) {
					best, cur, improved = t, s, true
				} else {
					lambda[n] = cur
				}
			}
			lambda[n] = cur
		}
		if !improved {
			break
		}
	}
	return best, nil
}

// schemeHints predicts, per attribute, the encryption scheme the extension
// would choose if the attribute ends up encrypted: Paillier when it is
// additively aggregated over ciphertexts, OPE when order-compared over
// ciphertexts, deterministic when equality-compared, randomized otherwise.
// An operation with at least one plaintext-authorized candidate is assumed
// to be opportunistically decrypted rather than evaluated under an
// expensive scheme (mirroring core.Extend), so it does not force
// Paillier/OPE on its attributes. The DP uses the hints to price edge
// encryption and ciphertext-evaluation slowdowns. They are fixed before any
// assignment exists, while core.Extend chooses schemes per assignment: this
// and opportunistic decryption are all the DP approximates, and refine
// corrects them under the exact cost.
func schemeHints(an *core.Analysis) map[algebra.Attr]algebra.Scheme {
	type need struct{ eq, ord, sum bool }
	needs := make(map[algebra.Attr]*need)
	get := func(a algebra.Attr) *need {
		if n, ok := needs[a]; ok {
			return n
		}
		n := &need{}
		needs[a] = n
		return n
	}
	algebra.PostOrder(an.Root, func(n algebra.Node) {
		// canDecrypt(a): some candidate of n may see a in plaintext, so the
		// expensive encrypted evaluation of a at n is avoidable.
		canDecrypt := func(a algebra.Attr) bool {
			for _, s := range an.Candidates[n] {
				if an.Views[s].P.Has(a) {
					return true
				}
			}
			return false
		}
		markPred := func(p algebra.Pred) {
			algebra.WalkPred(p, func(q algebra.Pred) {
				switch c := q.(type) {
				case *algebra.CmpAV:
					if c.Op.IsEquality() || c.Op == sql.OpNeq {
						get(c.A).eq = true
					} else if !canDecrypt(c.A) {
						get(c.A).ord = true
					}
				case *algebra.CmpAA:
					for _, a := range []algebra.Attr{c.L, c.R} {
						if c.Op.IsEquality() || c.Op == sql.OpNeq {
							get(a).eq = true
						} else if !canDecrypt(a) {
							get(a).ord = true
						}
					}
				}
			})
		}
		switch x := n.(type) {
		case *algebra.Select:
			markPred(x.Pred)
		case *algebra.Join:
			markPred(x.Cond)
		case *algebra.GroupBy:
			for _, k := range x.Keys {
				get(k).eq = true
			}
			for _, spec := range x.Aggs {
				if spec.Star || canDecrypt(spec.Attr) {
					continue
				}
				switch spec.Func {
				case sql.AggAvg, sql.AggSum:
					get(spec.Attr).sum = true
				case sql.AggMin, sql.AggMax:
					get(spec.Attr).ord = true
				}
			}
		}
	})
	out := make(map[algebra.Attr]algebra.Scheme, len(needs))
	algebra.PostOrder(an.Root, func(n algebra.Node) {
		for _, a := range n.Schema() {
			nd := needs[a]
			switch {
			case nd == nil:
				out[a] = algebra.SchemeRandom
			case nd.sum:
				out[a] = algebra.SchemePaillier
			case nd.ord:
				out[a] = algebra.SchemeOPE
			case nd.eq:
				out[a] = algebra.SchemeDeterministic
			default:
				out[a] = algebra.SchemeRandom
			}
		}
	})
	return out
}

// touchedAttrs returns the attributes an operation computes on.
func touchedAttrs(n algebra.Node) algebra.AttrSet {
	switch x := n.(type) {
	case *algebra.Select:
		return x.Pred.Attrs()
	case *algebra.Join:
		return x.Cond.Attrs()
	case *algebra.GroupBy:
		out := algebra.NewAttrSet(x.Keys...)
		out = out.Union(x.AggAttrs())
		out.Remove(algebra.CountAttr())
		return out
	case *algebra.UDF:
		return algebra.NewAttrSet(x.Args...)
	default:
		return algebra.NewAttrSet()
	}
}

// dpEntry is the best known solution for executing a subtree with its root
// operation at a given subject.
type dpEntry struct {
	subj   authz.Subject
	cost   float64
	choice []int // per child, the index of the chosen entry in best[child]
}

// chooseAssignmentBy runs the DP. When byTime is true it minimizes the
// estimated wall-clock time instead of the economic cost. Ties go to the
// first subject in candidate order, so one plan always gets one assignment.
func chooseAssignmentBy(sys *core.System, an *core.Analysis, m *cost.Model, byTime bool) core.Assignment {
	hints := schemeHints(an)
	// best[n] holds, in sorted subject order, the minimal objective for the
	// subtree rooted at n per subject executing n (for leaves: the data
	// authority, single entry).
	best := make(map[algebra.Node][]dpEntry)

	algebra.PostOrder(an.Root, func(n algebra.Node) {
		children := n.Children()
		if len(children) == 0 {
			b := n.(*algebra.Base)
			host := authz.Subject(b.Host())
			best[n] = []dpEntry{{subj: host, cost: leafCost(b, m, host, byTime)}}
			return
		}
		var entries []dpEntry
		for _, s := range an.Candidates[n] {
			total := opCost(an, n, s, m, byTime, hints)
			choice := make([]int, len(children))
			feasible := true
			for i, c := range children {
				bestC := math.Inf(1)
				for j, e := range best[c] {
					v := e.cost + edgeCost(an, c, e.subj, n, s, m, byTime, hints)
					if v < bestC {
						bestC, choice[i] = v, j
					}
				}
				if math.IsInf(bestC, 1) {
					feasible = false
					break
				}
				total += bestC
			}
			if feasible {
				entries = append(entries, dpEntry{subj: s, cost: total, choice: choice})
			}
		}
		best[n] = entries
	})

	// Pick the root subject, adding the delivery edge to the user.
	var root dpEntry
	bestV := math.Inf(1)
	for _, e := range best[an.Root] {
		v := e.cost + deliveryCost(an, an.Root, e.subj, m, byTime)
		if v < bestV {
			bestV, root = v, e
		}
	}

	// Walk back down recording choices.
	lambda := make(core.Assignment)
	var assignDown func(n algebra.Node, e dpEntry)
	assignDown = func(n algebra.Node, e dpEntry) {
		children := n.Children()
		if len(children) == 0 {
			return
		}
		lambda[n] = e.subj
		for i, c := range children {
			assignDown(c, best[c][e.choice[i]])
		}
	}
	assignDown(an.Root, root)
	return lambda
}

// leafCost prices scanning a base relation at its authority.
func leafCost(b *algebra.Base, m *cost.Model, auth authz.Subject, byTime bool) float64 {
	bytes := b.Stats().Bytes(b.Schema())
	if byTime {
		return bytes / 200e6 // ~200 MB/s scan
	}
	return bytes * m.PriceOf(auth).IOPerByte
}

// opCost prices the evaluation of operation n at subject s with the cost
// model's own per-tuple operator seconds (cost.OpTuples), raised to the
// ciphertext-evaluation cost when s may only access an attribute the
// operation computes on in encrypted form.
func opCost(an *core.Analysis, n algebra.Node, s authz.Subject, m *cost.Model, byTime bool,
	hints map[algebra.Attr]algebra.Scheme) float64 {
	per, tuples := cost.OpTuples(n)
	// Operating over ciphertexts (attributes the subject sees encrypted).
	view := an.Views[s]
	for a := range touchedAttrs(n).Intersect(view.E).All() {
		if c := cost.OpSecondsOverCipher(hints[a]); c > per {
			per = c
		}
	}
	sec := tuples * per
	if byTime {
		return sec
	}
	return sec * m.PriceOf(s).CPUPerSec
}

// edgeCost prices the edge from child c (executed by cs) to n (executed by
// s): network transfer when they differ, plus the encryption work the
// assignment induces on the edge (attributes s may only see encrypted) and
// the decryption of the attributes n needs in plaintext.
func edgeCost(an *core.Analysis, c algebra.Node, cs authz.Subject, n algebra.Node, s authz.Subject,
	m *cost.Model, byTime bool, hints map[algebra.Attr]algebra.Scheme) float64 {
	rows := c.Stats().Rows
	view := an.Views[s]

	// Transfer size with ciphertext expansion for the attributes the
	// consumer sees encrypted.
	st := c.Stats()
	var width float64
	for _, a := range c.Schema() {
		w, ok := st.Widths[a]
		if !ok {
			w = algebra.DefaultWidth
		}
		if view.E.Has(a) {
			w = cost.CipherWidth(hints[a], w)
		}
		width += w
	}
	bytes := rows * width

	var out float64
	if cs != s {
		if byTime {
			if m.BandwidthBps != nil {
				out += bytes * 8 / m.BandwidthBps(cs, s)
			}
		} else {
			out += bytes * m.NetPerByte(cs, s)
		}
	}

	// On-the-fly protection: attributes of the child schema the consumer
	// may only access encrypted get encrypted at the producer; attributes
	// required in plaintext get decrypted at the consumer. An attribute
	// whose expensive-scheme consumer (Paillier/OPE) is plaintext-
	// authorized gets opportunistically decrypted by the extension, so its
	// encryption is priced as randomized.
	schema := algebra.SchemaSet(c)
	var encSec float64
	for a := range view.E.Intersect(schema).All() {
		encSec += cost.EncSeconds(hints[a])
	}
	var decSec float64
	for a := range an.Reqs[n].Intersect(schema).All() {
		decSec += cost.DecSeconds(hints[a])
	}
	sec := rows * (encSec + decSec)
	if byTime {
		return out + sec
	}
	return out + sec*m.PriceOf(cs).CPUPerSec
}

// deliveryCost prices shipping the final result from the root executor to
// the user.
func deliveryCost(an *core.Analysis, root algebra.Node, s authz.Subject, m *cost.Model, byTime bool) float64 {
	if m.User == "" || s == m.User {
		return 0
	}
	bytes := root.Stats().Bytes(root.Schema())
	if byTime {
		if m.BandwidthBps != nil {
			return bytes * 8 / m.BandwidthBps(s, m.User)
		}
		return 0
	}
	return bytes * m.NetPerByte(s, m.User)
}
