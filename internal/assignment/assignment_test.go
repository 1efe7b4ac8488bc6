package assignment

import (
	"math"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/authz"
	"mpq/internal/core"
	"mpq/internal/cost"
	"mpq/internal/sql"
)

var (
	hS = algebra.A("Hosp", "S")
	hD = algebra.A("Hosp", "D")
	hT = algebra.A("Hosp", "T")
	iC = algebra.A("Ins", "C")
	iP = algebra.A("Ins", "P")
)

func examplePolicy() *authz.Policy {
	p := authz.NewPolicy()
	p.MustGrant("Hosp", "H", []string{"S", "B", "D", "T"}, nil)
	p.MustGrant("Hosp", "I", []string{"B"}, []string{"S", "D", "T"})
	p.MustGrant("Hosp", "U", []string{"S", "D", "T"}, nil)
	p.MustGrant("Hosp", "X", []string{"D", "T"}, []string{"S"})
	p.MustGrant("Hosp", "Y", []string{"B", "D", "T"}, []string{"S"})
	p.MustGrant("Hosp", "Z", []string{"S", "T"}, []string{"D"})
	p.MustGrant("Ins", "H", []string{"C"}, []string{"P"})
	p.MustGrant("Ins", "I", []string{"C", "P"}, nil)
	p.MustGrant("Ins", "U", []string{"C", "P"}, nil)
	p.MustGrant("Ins", "X", nil, []string{"C", "P"})
	p.MustGrant("Ins", "Y", []string{"P"}, []string{"C"})
	p.MustGrant("Ins", "Z", []string{"C"}, []string{"P"})
	return p
}

func examplePlan() algebra.Node {
	widthsH := map[algebra.Attr]float64{hS: 11, hD: 20, hT: 20}
	widthsI := map[algebra.Attr]float64{iC: 11, iP: 8}
	hosp := algebra.NewBase("Hosp", "H", []algebra.Attr{hS, hD, hT}, 100000, widthsH)
	ins := algebra.NewBase("Ins", "I", []algebra.Attr{iC, iP}, 500000, widthsI)
	sel := algebra.NewSelect(hosp, &algebra.CmpAV{A: hD, Op: sql.OpEq, V: sql.StringValue("stroke")}, 0.1)
	join := algebra.NewJoin(sel, ins, &algebra.CmpAA{L: hS, Op: sql.OpEq, R: iC}, 1.0/500000)
	grp := algebra.NewGroupBy1(join, []algebra.Attr{hT}, sql.AggAvg, iP, false, 50)
	return algebra.NewSelect(grp, &algebra.CmpAV{A: iP, Op: sql.OpGt, V: sql.NumberValue(100), Agg: sql.AggAvg}, 0.5)
}

func paperModel() *cost.Model {
	return cost.NewPaperModel("U", []authz.Subject{"H", "I"}, []authz.Subject{"X", "Y", "Z"})
}

func TestOptimizeRunningExample(t *testing.T) {
	sys := core.NewSystem(examplePolicy(), "H", "I", "U", "X", "Y", "Z")
	root := examplePlan()
	an := sys.Analyze(root, nil)
	res, err := Optimize(sys, an, paperModel(), Options{})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Cost.Total() <= 0 {
		t.Errorf("cost = %v", res.Cost)
	}
	// The result must be an authorized assignment of the extended plan.
	if err := sys.CheckAssignment(res.Extended.Root, res.Extended.Assign); err != nil {
		t.Errorf("optimized assignment not authorized: %v", err)
	}
	if err := core.CheckPlaintextAvailability(res.Extended.Root, an.Reqs, res.Extended.Source); err != nil {
		t.Errorf("plaintext availability: %v", err)
	}
}

func TestDPAgainstExhaustive(t *testing.T) {
	sys := core.NewSystem(examplePolicy(), "H", "I", "U", "X", "Y", "Z")
	root := examplePlan()
	an := sys.Analyze(root, nil)
	m := paperModel()
	dp, err := Optimize(sys, an, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Exhaustive(sys, an, m)
	if err != nil {
		t.Fatal(err)
	}
	// On the running example the search reaches the optimum exactly.
	if dp.Cost.Total() != ex.Cost.Total() {
		t.Errorf("Optimize cost %.17g, exhaustive optimum %.17g\nOptimize: %v\nopt: %v",
			dp.Cost.Total(), ex.Cost.Total(), dp.Lambda, ex.Lambda)
	}
}

// Exhaustive enumerates every assignment in the candidate sets and returns
// the one with minimal exact cost (building the extension for each). It is
// exponential and validates the DP-plus-refinement search on small plans.
func Exhaustive(sys *core.System, an *core.Analysis, m *cost.Model) (*Result, error) {
	if err := an.Feasible(); err != nil {
		return nil, err
	}
	var ops []algebra.Node
	algebra.PostOrder(an.Root, func(n algebra.Node) {
		if len(n.Children()) > 0 {
			ops = append(ops, n)
		}
	})
	bestCost := math.Inf(1)
	var bestRes *Result
	lambda := make(core.Assignment)
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(ops) {
			ext, err := sys.Extend(an, lambda)
			if err != nil {
				return err
			}
			br := cost.OfPlan(ext.Root, ext.Assign.Executor, ext.Schemes, ext.Profiles, m)
			if br.Total() < bestCost {
				cp := make(core.Assignment, len(lambda))
				for k, v := range lambda {
					cp[k] = v
				}
				bestRes = &Result{Lambda: cp, Extended: ext, Cost: br}
				bestCost = br.Total()
			}
			return nil
		}
		for _, s := range an.Candidates[ops[i]] {
			lambda[ops[i]] = s
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return bestRes, nil
}

// BenchmarkExhaustiveVsDP validates the optimizer: exhaustive enumeration
// versus the DP-plus-refinement search on the running example, reporting
// the cost gap (1.0 = optimal).
func BenchmarkExhaustiveVsDP(b *testing.B) {
	sys := core.NewSystem(examplePolicy(), "H", "I", "U", "X", "Y", "Z")
	root := examplePlan()
	m := paperModel()
	var gap float64
	for i := 0; i < b.N; i++ {
		an := sys.Analyze(root, nil)
		dp, err := Optimize(sys, an, m, Options{})
		if err != nil {
			b.Fatal(err)
		}
		ex, err := Exhaustive(sys, an, m)
		if err != nil {
			b.Fatal(err)
		}
		gap = dp.Cost.Total() / ex.Cost.Total()
	}
	b.ReportMetric(gap, "dp/optimal")
}

// TestScenarioOrdering reproduces the qualitative result of Figure 9: the
// user-only scenario (UA) is the most expensive; authorizing providers for
// encrypted access (UAPenc) reduces cost; plaintext access for some
// attributes (UAPmix) reduces it further or equally.
func TestScenarioOrdering(t *testing.T) {
	root := examplePlan()
	m := paperModel()

	// UA: only the user (and the authorities over their own data).
	ua := authz.NewPolicy()
	ua.MustGrant("Hosp", "H", []string{"S", "B", "D", "T"}, nil)
	ua.MustGrant("Ins", "I", []string{"C", "P"}, nil)
	ua.MustGrant("Hosp", "U", []string{"S", "B", "D", "T"}, nil)
	ua.MustGrant("Ins", "U", []string{"C", "P"}, nil)
	sysUA := core.NewSystem(ua, "H", "I", "U", "X", "Y", "Z")

	// UAPenc: providers see everything encrypted.
	enc := authz.NewPolicy()
	enc.MustGrant("Hosp", "H", []string{"S", "B", "D", "T"}, nil)
	enc.MustGrant("Ins", "I", []string{"C", "P"}, nil)
	enc.MustGrant("Hosp", "U", []string{"S", "B", "D", "T"}, nil)
	enc.MustGrant("Ins", "U", []string{"C", "P"}, nil)
	for _, pr := range []authz.Subject{"X", "Y", "Z"} {
		enc.MustGrant("Hosp", pr, nil, []string{"S", "B", "D", "T"})
		enc.MustGrant("Ins", pr, nil, []string{"C", "P"})
	}
	sysEnc := core.NewSystem(enc, "H", "I", "U", "X", "Y", "Z")

	// UAPmix: providers see half the attributes plaintext.
	mix := authz.NewPolicy()
	mix.MustGrant("Hosp", "H", []string{"S", "B", "D", "T"}, nil)
	mix.MustGrant("Ins", "I", []string{"C", "P"}, nil)
	mix.MustGrant("Hosp", "U", []string{"S", "B", "D", "T"}, nil)
	mix.MustGrant("Ins", "U", []string{"C", "P"}, nil)
	for _, pr := range []authz.Subject{"X", "Y", "Z"} {
		mix.MustGrant("Hosp", pr, []string{"D", "T"}, []string{"S", "B"})
		mix.MustGrant("Ins", pr, []string{"P"}, []string{"C"})
	}
	sysMix := core.NewSystem(mix, "H", "I", "U", "X", "Y", "Z")

	costOf := func(sys *core.System) float64 {
		an := sys.Analyze(root, nil)
		res, err := Optimize(sys, an, m, Options{})
		if err != nil {
			t.Fatalf("Optimize: %v", err)
		}
		if err := sys.CheckAssignment(res.Extended.Root, res.Extended.Assign); err != nil {
			t.Fatalf("unauthorized optimum: %v", err)
		}
		return res.Cost.Total()
	}

	ca, ce, cm := costOf(sysUA), costOf(sysEnc), costOf(sysMix)
	if !(ce < ca) {
		t.Errorf("UAPenc (%.6g) should undercut UA (%.6g)", ce, ca)
	}
	if !(cm <= ce*1.0001) {
		t.Errorf("UAPmix (%.6g) should not exceed UAPenc (%.6g)", cm, ce)
	}
}

func TestPerformanceThreshold(t *testing.T) {
	sys := core.NewSystem(examplePolicy(), "H", "I", "U", "X", "Y", "Z")
	root := examplePlan()
	an := sys.Analyze(root, nil)
	m := paperModel()

	// A generous threshold changes nothing.
	res, err := Optimize(sys, an, m, Options{MaxSeconds: 3600})
	if err != nil {
		t.Fatalf("generous threshold: %v", err)
	}
	if res.Cost.Seconds > 3600 {
		t.Errorf("time = %v", res.Cost.Seconds)
	}
	// An impossible threshold is reported as such.
	if _, err := Optimize(sys, an, m, Options{MaxSeconds: 1e-12}); err == nil {
		t.Errorf("impossible threshold accepted")
	}
}

func TestInfeasibleOptimize(t *testing.T) {
	pol := authz.NewPolicy()
	pol.MustGrant("R", "U", []string{"a"}, nil)
	sys := core.NewSystem(pol, "U")
	rb := algebra.A("R", "b")
	base := algebra.NewBase("R", "A", []algebra.Attr{rb}, 10, nil)
	sel := algebra.NewSelect(base, &algebra.CmpAV{A: rb, Op: sql.OpEq, V: sql.NumberValue(1)}, 0.5)
	an := sys.Analyze(sel, nil)
	if _, err := Optimize(sys, an, paperModel(), Options{}); err == nil {
		t.Errorf("infeasible plan optimized")
	}
	if _, err := Exhaustive(sys, an, paperModel()); err == nil {
		t.Errorf("infeasible plan enumerated")
	}
}

func TestCostBreakdownComponents(t *testing.T) {
	sys := core.NewSystem(examplePolicy(), "H", "I", "U", "X", "Y", "Z")
	root := examplePlan()
	an := sys.Analyze(root, nil)
	res, err := Optimize(sys, an, paperModel(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	br := res.Cost
	if br.CPU <= 0 || br.IO <= 0 {
		t.Errorf("breakdown = %+v", br)
	}
	sum := 0.0
	for _, nc := range br.PerNode {
		sum += nc.CPU + nc.IO + nc.Net
	}
	// Per-node costs sum to the totals (modulo the final delivery edge).
	if sum > br.Total() {
		t.Errorf("per-node sum %.6g exceeds total %.6g", sum, br.Total())
	}
	if br.String() == "" || br.FormatPerNode() == "" {
		t.Errorf("formatting failed")
	}
}

// TestDPBreaksTiesInSubjectOrder prices two providers identically and
// grants them identical views, so every DP state has an exact tie between
// them: the DP must pick the first in subject order every time, never
// whichever map iteration happens to visit first.
func TestDPBreaksTiesInSubjectOrder(t *testing.T) {
	pol := authz.NewPolicy()
	pol.MustGrant("Hosp", "H", []string{"S", "B", "D", "T"}, nil)
	pol.MustGrant("Ins", "I", []string{"C", "P"}, nil)
	pol.MustGrant("Hosp", "U", []string{"S", "D", "T"}, nil)
	pol.MustGrant("Ins", "U", []string{"C", "P"}, nil)
	for _, p := range []authz.Subject{"X", "Y"} {
		pol.MustGrant("Hosp", p, []string{"D", "T"}, []string{"S"})
		pol.MustGrant("Ins", p, []string{"P"}, []string{"C"})
	}
	sys := core.NewSystem(pol, "H", "I", "U", "X", "Y")
	an := sys.Analyze(examplePlan(), nil)
	// X and Y are both unlisted: they share the model's default price.
	m := cost.NewPaperModel("U", []authz.Subject{"H", "I"}, nil)
	first := ChooseAssignment(sys, an, m)
	usesX := false
	for _, s := range first {
		if s == "Y" {
			t.Fatalf("tie broken towards Y: %v", first)
		}
		usesX = usesX || s == "X"
	}
	if !usesX {
		t.Fatalf("no provider assigned, so no tie was exercised: %v", first)
	}
	for i := 0; i < 20; i++ {
		got := ChooseAssignment(sys, an, m)
		for n, s := range first {
			if got[n] != s {
				t.Fatalf("run %d: λ(%s) = %s, run 0 chose %s", i, n.Op(), got[n], s)
			}
		}
	}
}
