package assignment

import (
	"math"
	"math/rand"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/authz"
	"mpq/internal/core"
	"mpq/internal/cost"
	"mpq/internal/plangen"
)

// randomSystem mirrors core's theorem-test construction: user with full
// plaintext, authorities over their own relations, random providers.
func randomSystem(rels []*algebra.Relation, nProviders int, rnd *rand.Rand) (*core.System, *cost.Model) {
	pol := authz.NewPolicy()
	subjects := []authz.Subject{"U"}
	var auths, provs []authz.Subject
	for _, r := range rels {
		var all []string
		for _, c := range r.Columns {
			all = append(all, c.Name)
		}
		pol.MustGrant(r.Name, authz.Subject(r.Authority), all, nil)
		pol.MustGrant(r.Name, "U", all, nil)
		subjects = append(subjects, authz.Subject(r.Authority))
		auths = append(auths, authz.Subject(r.Authority))
	}
	for i := 0; i < nProviders; i++ {
		s := authz.Subject("P" + string(rune('0'+i)))
		subjects = append(subjects, s)
		provs = append(provs, s)
		for _, r := range rels {
			var plain, enc []string
			for _, c := range r.Columns {
				switch rnd.Intn(3) {
				case 0:
					plain = append(plain, c.Name)
				case 1:
					enc = append(enc, c.Name)
				}
			}
			pol.MustGrant(r.Name, s, plain, enc)
		}
	}
	return core.NewSystem(pol, subjects...), cost.NewPaperModel("U", auths, provs)
}

// TestOptimizeAlwaysAuthorizedAndBeatsUserOnly: over random plans and
// policies, the optimizer output (a) passes the full Definition 4.2 check,
// (b) provides the required plaintext attributes, and (c) never costs more
// than executing everything at the user (which is always feasible in these
// systems).
func TestOptimizeAlwaysAuthorizedAndBeatsUserOnly(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		g := plangen.New(plangen.Config{
			Relations: 1 + int(seed%3), AttrsPerRel: 3, ExtraOps: 2 + int(seed%4),
			UDFs: true, Seed: seed,
		})
		rels := g.Relations()
		root := g.Plan(rels)
		sys, m := randomSystem(rels, 3, g.Rand())
		an := sys.Analyze(root, nil)
		if an.Feasible() != nil {
			t.Fatalf("seed %d: infeasible despite full-plaintext user", seed)
		}
		res, err := Optimize(sys, an, m, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := sys.CheckAssignment(res.Extended.Root, res.Extended.Assign); err != nil {
			t.Fatalf("seed %d: optimum not authorized: %v", seed, err)
		}
		if err := core.CheckPlaintextAvailability(res.Extended.Root, an.Reqs, res.Extended.Source); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// All-user baseline.
		lambda := make(core.Assignment)
		algebra.PostOrder(root, func(n algebra.Node) {
			if len(n.Children()) > 0 {
				lambda[n] = "U"
			}
		})
		extU, err := sys.Extend(an, lambda)
		if err != nil {
			t.Fatalf("seed %d: user extension: %v", seed, err)
		}
		userCost := cost.OfPlan(extU.Root, extU.Assign.Executor, extU.Schemes, extU.Profiles, m).Total()
		if res.Cost.Total() > userCost*1.000001 {
			t.Fatalf("seed %d: optimizer (%.6g) worse than all-user (%.6g)",
				seed, res.Cost.Total(), userCost)
		}

		// Every uniform assignment is a floor Optimize prices.
		var ops []algebra.Node
		algebra.PostOrder(root, func(n algebra.Node) {
			if len(n.Children()) > 0 {
				ops = append(ops, n)
			}
		})
		for _, uniform := range uniformAssignments(an, ops) {
			ext, err := sys.Extend(an, uniform)
			if err != nil {
				t.Fatalf("seed %d: uniform extension: %v", seed, err)
			}
			if c := cost.OfPlan(ext.Root, ext.Assign.Executor, ext.Schemes, ext.Profiles, m).Total(); res.Cost.Total() > c {
				t.Fatalf("seed %d: optimizer (%.6g) worse than all at %s (%.6g)",
					seed, res.Cost.Total(), uniform[ops[0]], c)
			}
		}
	}
}

// TestOptimizeReachesExhaustiveOptimum runs the random plans and systems of
// TestOptimizeMatchesReference over seeds 0–2999: wherever Exhaustive finds
// an optimum, Optimize must reach its cost within a relative 1e-9, and
// wherever Optimize fails, Exhaustive must fail too. The uniform floor is
// what closes the gap: refining the DP seed alone, or flooring it with the
// all-user assignment only, misses the optimum on some of these seeds.
func TestOptimizeReachesExhaustiveOptimum(t *testing.T) {
	failed := 0
	for seed := int64(0); seed < 3000; seed++ {
		g := plangen.New(plangen.Config{
			Relations: 1 + int(seed%3), AttrsPerRel: 3 + int(seed%2), ExtraOps: 2 + int(seed%5),
			UDFs: seed%2 == 0, Seed: seed,
		})
		rels := g.Relations()
		root := g.Plan(rels)
		sys, m := randomSystem(rels, 1+int(seed%3), g.Rand())
		an := sys.Analyze(root, nil)
		res, err := Optimize(sys, an, m, Options{})
		ex, exErr := Exhaustive(sys, an, m)
		if err != nil {
			failed++
			if exErr == nil {
				t.Errorf("seed %d: Optimize failed (%v) where Exhaustive found $%.6g", seed, err, ex.Cost.Total())
			}
			continue
		}
		if exErr != nil {
			t.Fatalf("seed %d: Exhaustive: %v", seed, exErr)
		}
		if got, opt := res.Cost.Total(), ex.Cost.Total(); math.Abs(got-opt) > 1e-9*opt {
			t.Errorf("seed %d: Optimize $%.9g, exhaustive optimum $%.9g (%+.2f%%)", seed, got, opt, 100*(got/opt-1))
		}
	}
	t.Logf("%d of 3000 seeds infeasible", failed)
}

// TestOptimizeDeterministic: repeated optimization of the same inputs gives
// the same cost (guards against map-iteration nondeterminism).
func TestOptimizeDeterministic(t *testing.T) {
	g := plangen.New(plangen.DefaultConfig(5))
	rels := g.Relations()
	root := g.Plan(rels)
	sys, m := randomSystem(rels, 3, g.Rand())
	an := sys.Analyze(root, nil)
	if an.Feasible() != nil {
		t.Skip("infeasible sample")
	}
	first, err := Optimize(sys, an, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := Optimize(sys, sys.Analyze(root, nil), m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if again.Cost.Total() != first.Cost.Total() {
			t.Fatalf("run %d: cost %v != %v", i, again.Cost.Total(), first.Cost.Total())
		}
	}
}
