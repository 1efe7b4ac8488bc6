package assignment_test

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/assignment"
	"mpq/internal/core"
	"mpq/internal/cost"
	"mpq/internal/plangen"
	"mpq/internal/planner"
	"mpq/internal/tpch"
)

// referenceScales are the TPC-H scale factors the reference and refine-gain
// tables cover: the benchmark's two and the determinism test's.
var referenceScales = []float64{0.0004, 0.001, 0.01}

// tpchCells calls fn on the analysis of each of the 66 TPC-H cells (22
// queries × UA/UAPenc/UAPmix) at scale factor sf.
func tpchCells(t *testing.T, sf float64, fn func(sc tpch.Scenario, q tpch.Query, sys *core.System, an *core.Analysis)) {
	t.Helper()
	cat := tpch.Catalog(sf)
	pl := planner.New(cat)
	for _, sc := range tpch.Scenarios() {
		sys := tpch.System(cat, sc)
		for _, q := range tpch.Queries() {
			plan, err := pl.PlanSQL(q.SQL)
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			fn(sc, q, sys, sys.Analyze(plan.Root, nil))
		}
	}
}

// referenceOptimize is Optimize without its per-call memo: the same DP seed,
// sweep order, 8-sweep cap and 1e-9 improvement rule, then the same uniform
// assignments in the same order under the same strict tie rule, but every
// trial extends the whole plan with keys and prices it afresh. It returns
// the number of trials priced beside the result.
func referenceOptimize(sys *core.System, an *core.Analysis, m *cost.Model) (*assignment.Result, int, error) {
	if err := an.Feasible(); err != nil {
		return nil, 0, err
	}
	trials := 0
	exact := func(l core.Assignment) (*core.ExtendedPlan, cost.Breakdown, error) {
		trials++
		ext, err := sys.Extend(an, l)
		if err != nil {
			return nil, cost.Breakdown{}, err
		}
		return ext, cost.OfPlan(ext.Root, ext.Assign.Executor, ext.Schemes, ext.Profiles, m), nil
	}
	var ops []algebra.Node
	algebra.PostOrder(an.Root, func(n algebra.Node) {
		if len(n.Children()) > 0 {
			ops = append(ops, n)
		}
	})
	refine := func(lambda core.Assignment) (*core.ExtendedPlan, cost.Breakdown, error) {
		bestExt, bestBr, err := exact(lambda)
		if err != nil {
			return nil, cost.Breakdown{}, err
		}
		for sweep := 0; sweep < 8; sweep++ {
			improved := false
			for _, n := range ops {
				cur := lambda[n]
				for _, s := range an.Candidates[n] {
					if s == cur {
						continue
					}
					lambda[n] = s
					ext, br, err := exact(lambda)
					if err != nil {
						return nil, cost.Breakdown{}, err
					}
					if br.Total() < bestBr.Total()*(1-1e-9) {
						bestExt, bestBr = ext, br
						cur = s
						improved = true
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
		return bestExt, bestBr, nil
	}
	seed := assignment.ChooseAssignment(sys, an, m)
	ext, br, err := refine(seed)
	if err != nil {
		return nil, trials, err
	}
	res := &assignment.Result{Lambda: seed, Extended: ext, Cost: br}
	for _, uniform := range assignment.UniformAssignments(an, ops) {
		ext, br, err := exact(uniform)
		if err != nil {
			return nil, trials, err
		}
		if br.Total() < res.Cost.Total() {
			res = &assignment.Result{Lambda: uniform, Extended: ext, Cost: br}
		}
	}
	sys.MarkPartials(res.Extended)
	return res, trials, nil
}

// fingerprint renders everything Optimize decides, bit for bit: λ over the
// original plan, the cost components' float64 bits, the extended plan with
// executors and key ids, the schemes, the keys with holders and the partial
// aggregation marks.
func fingerprint(an *core.Analysis, res *assignment.Result) string {
	var b strings.Builder
	algebra.PostOrder(an.Root, func(n algebra.Node) {
		if s, ok := res.Lambda[n]; ok {
			fmt.Fprintf(&b, "λ(%s) = %s\n", n.Op(), s)
		}
	})
	br := res.Cost
	fmt.Fprintf(&b, "total %x cpu %x io %x net %x seconds %x\n", math.Float64bits(br.Total()),
		math.Float64bits(br.CPU), math.Float64bits(br.IO), math.Float64bits(br.Net), math.Float64bits(br.Seconds))
	ext := res.Extended
	index := make(map[algebra.Node]int)
	algebra.PostOrder(ext.Root, func(n algebra.Node) { index[n] = len(index) })
	b.WriteString(algebra.Format(ext.Root, func(n algebra.Node) string {
		out := fmt.Sprintf("#%d @%s", index[n], ext.Assign.Executor(n))
		var ids map[algebra.Attr]string
		switch x := n.(type) {
		case *algebra.Encrypt:
			ids = x.KeyIDs
		case *algebra.Decrypt:
			ids = x.KeyIDs
		}
		for _, a := range algebra.NewAttrSet(keysOf(ids)...).Sorted() {
			out += fmt.Sprintf(" %s→%s", a, ids[a])
		}
		return out
	}))
	for _, a := range algebra.NewAttrSet(keysOf(ext.Schemes)...).Sorted() {
		fmt.Fprintf(&b, "scheme %s %s\n", a, ext.Schemes[a])
	}
	for _, k := range ext.Keys {
		fmt.Fprintf(&b, "key %s %s %v\n", k.ID, k.Attrs, k.Holders)
	}
	var partials []string
	for shipped, pe := range ext.Partials {
		line := fmt.Sprintf("partial #%d → #%d", index[shipped], index[pe.GroupBy])
		for _, s := range pe.Selects {
			line += fmt.Sprintf(" σ#%d", index[s])
		}
		partials = append(partials, line)
	}
	sort.Strings(partials)
	b.WriteString(strings.Join(partials, "\n"))
	return b.String()
}

func keysOf[V any](m map[algebra.Attr]V) []algebra.Attr {
	out := make([]algebra.Attr, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	return out
}

// TestOptimizeMatchesReference requires Optimize to decide exactly what the
// memo-free reference decides (same λ, same cost bits, same extended plan,
// schemes, keys and partial marks) on the 66 TPC-H cells at three scale
// factors and on random plans and authorizations.
func TestOptimizeMatchesReference(t *testing.T) {
	m := tpch.Model()
	for _, sf := range referenceScales {
		tpchCells(t, sf, func(sc tpch.Scenario, q tpch.Query, sys *core.System, an *core.Analysis) {
			want, _, err := referenceOptimize(sys, an, m)
			if err != nil {
				t.Fatalf("sf %g %s/%s: reference: %v", sf, sc, q.Name, err)
			}
			got, err := assignment.Optimize(sys, an, m, assignment.Options{})
			if err != nil {
				t.Fatalf("sf %g %s/%s: %v", sf, sc, q.Name, err)
			}
			if g, w := fingerprint(an, got), fingerprint(an, want); g != w {
				t.Errorf("sf %g %s/%s: Optimize differs from the reference:\n%s\nwant\n%s", sf, sc, q.Name, g, w)
			}
		})
	}
	for seed := int64(0); seed < 300; seed++ {
		g := plangen.New(plangen.Config{
			Relations: 1 + int(seed%3), AttrsPerRel: 3 + int(seed%2), ExtraOps: 2 + int(seed%5),
			UDFs: seed%2 == 0, Seed: seed,
		})
		rels := g.Relations()
		root := g.Plan(rels)
		sys, pm := assignment.RandomSystem(rels, 1+int(seed%3), g.Rand())
		an := sys.Analyze(root, nil)
		want, _, wantErr := referenceOptimize(sys, an, pm)
		got, gotErr := assignment.Optimize(sys, an, pm, assignment.Options{})
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("seed %d: error %v, reference %v", seed, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if g, w := fingerprint(an, got), fingerprint(an, want); g != w {
			t.Errorf("seed %d: Optimize differs from the reference:\n%s\nwant\n%s", seed, g, w)
		}
	}
}

// TestRefineGainCells is the table a DP that sees encryption is judged
// against: for each of the 66 TPC-H cells it logs the exact cost of the DP
// seed beside Optimize's, and pins per scenario the number of cells where
// the exact search beats the DP seed.
func TestRefineGainCells(t *testing.T) {
	want := map[tpch.Scenario]int{tpch.UA: 0, tpch.UAPenc: 6, tpch.UAPmix: 3}
	m := tpch.Model()
	for _, sf := range referenceScales {
		wins := make(map[tpch.Scenario]int)
		tpchCells(t, sf, func(sc tpch.Scenario, q tpch.Query, sys *core.System, an *core.Analysis) {
			ext, err := sys.Extend(an, assignment.ChooseAssignment(sys, an, m))
			if err != nil {
				t.Fatalf("sf %g %s/%s: DP seed: %v", sf, sc, q.Name, err)
			}
			dp := cost.OfPlan(ext.Root, ext.Assign.Executor, ext.Schemes, ext.Profiles, m).Total()
			res, err := assignment.Optimize(sys, an, m, assignment.Options{})
			if err != nil {
				t.Fatalf("sf %g %s/%s: %v", sf, sc, q.Name, err)
			}
			got := res.Cost.Total()
			if got > dp {
				t.Errorf("sf %g %s/%s: Optimize $%.6g above its DP seed $%.6g", sf, sc, q.Name, got, dp)
			}
			if got < dp {
				wins[sc]++
			}
			t.Logf("sf %-6g %-6s Q%02d  dp $%.6e  optimize $%.6e  %+7.2f%%", sf, sc, q.Num, dp, got, 100*(got/dp-1))
		})
		for _, sc := range tpch.Scenarios() {
			if wins[sc] != want[sc] {
				t.Errorf("sf %g %s: refine beats the DP seed on %d cells, want %d", sf, sc, wins[sc], want[sc])
			}
		}
	}
}

// TestOptimizeExtendsEachAssignmentOnce is a count, not a timing: over the
// 66 TPC-H cells at sf 0.001, Optimize's whole-plan extensions equal the
// distinct λ it prices, while the memo-free reference makes a trial of each
// repeat.
func TestOptimizeExtendsEachAssignmentOnce(t *testing.T) {
	m := tpch.Model()
	var extensions, distinct, trials int
	tpchCells(t, 0.001, func(sc tpch.Scenario, q tpch.Query, sys *core.System, an *core.Analysis) {
		seen := make(map[string]bool)
		restore := assignment.SetPricedHook(func(l core.Assignment) {
			extensions++
			var key strings.Builder
			algebra.PostOrder(an.Root, func(n algebra.Node) {
				if s, ok := l[n]; ok {
					fmt.Fprintf(&key, "%s=%s;", n.Op(), s)
				}
			})
			if !seen[key.String()] {
				seen[key.String()] = true
				distinct++
			}
		})
		defer restore()
		if _, err := assignment.Optimize(sys, an, m, assignment.Options{}); err != nil {
			t.Fatalf("%s/%s: %v", sc, q.Name, err)
		}
		_, n, err := referenceOptimize(sys, an, m)
		if err != nil {
			t.Fatalf("%s/%s: reference: %v", sc, q.Name, err)
		}
		trials += n
	})
	t.Logf("%d whole-plan extensions, %d distinct λ, %d reference trials", extensions, distinct, trials)
	if extensions != distinct {
		t.Errorf("%d whole-plan extensions for %d distinct λ: some λ was priced twice", extensions, distinct)
	}
	if extensions >= trials {
		t.Errorf("%d extensions, not fewer than the reference's %d trials", extensions, trials)
	}
}
