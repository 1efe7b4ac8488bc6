// Command quickstart walks the paper's running example end to end: the
// hospital/insurance query of Section 1, the authorizations of Figure 1(b),
// the profiles of Figure 3, the candidate sets of Figure 6, the minimally
// extended plan and keys of Figure 7(a), the dispatch of Figure 8, and a
// real encrypted execution whose decrypted result matches the plaintext
// run.
package main

import (
	"fmt"
	"log"

	"mpq/internal/algebra"
	"mpq/internal/assignment"
	"mpq/internal/authz"
	"mpq/internal/core"
	"mpq/internal/cost"
	"mpq/internal/crypto"
	"mpq/internal/dispatch"
	"mpq/internal/exec"
	"mpq/internal/planner"
)

func main() {
	// ------------------------------------------------------------------
	// The catalog: Hosp(S,B,D,T) at authority H, Ins(C,P) at authority I.
	cat := algebra.NewCatalog()
	cat.Add(&algebra.Relation{Name: "Hosp", Authority: "H", Rows: 1000, Columns: []algebra.Column{
		{Name: "S", Type: algebra.TString, Width: 11, Distinct: 1000},
		{Name: "B", Type: algebra.TDate, Width: 8, Distinct: 500},
		{Name: "D", Type: algebra.TString, Width: 20, Distinct: 50},
		{Name: "T", Type: algebra.TString, Width: 20, Distinct: 40},
	}})
	cat.Add(&algebra.Relation{Name: "Ins", Authority: "I", Rows: 5000, Columns: []algebra.Column{
		{Name: "C", Type: algebra.TString, Width: 11, Distinct: 5000},
		{Name: "P", Type: algebra.TFloat, Width: 8, Distinct: 800},
	}})

	// The authorizations of Figure 1(b), in the paper's [P,E]→S notation.
	pol := authz.NewPolicy()
	for _, rule := range []struct{ rel, spec string }{
		{"Hosp", "[S,B,D,T ; ] -> H"},
		{"Hosp", "[B ; S,D,T] -> I"},
		{"Hosp", "[S,D,T ; ] -> U"},
		{"Hosp", "[D,T ; S] -> X"},
		{"Hosp", "[B,D,T ; S] -> Y"},
		{"Hosp", "[S,T ; D] -> Z"},
		{"Hosp", "[D,T ; ] -> any"},
		{"Ins", "[C ; P] -> H"},
		{"Ins", "[C,P ; ] -> I"},
		{"Ins", "[C,P ; ] -> U"},
		{"Ins", "[ ; C,P] -> X"},
		{"Ins", "[P ; C] -> Y"},
		{"Ins", "[C ; P] -> Z"},
		{"Ins", "[ ; P] -> any"},
	} {
		pol.MustParseRule(rule.rel, rule.spec)
	}

	fmt.Println("== Overall views (Figure 4) ==")
	for _, s := range []authz.Subject{"H", "I", "U", "X", "Y", "Z"} {
		fmt.Printf("  %s\n", pol.View(s))
	}

	// ------------------------------------------------------------------
	// Plan the query of Section 1.
	query := "select T, avg(P) from Hosp join Ins on S=C where D='stroke' group by T having avg(P)>100"
	plan, err := planner.New(cat).PlanSQL(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== Query ==\n  " + query)

	// ------------------------------------------------------------------
	// Candidates (Figure 6) and profiles.
	sys := core.NewSystem(pol, "H", "I", "U", "X", "Y", "Z")
	an := sys.Analyze(plan.Root, nil)
	if err := an.Feasible(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== Plan with candidate sets Λ and min-view profiles (Figure 6) ==")
	fmt.Print(an.Format(nil))

	// ------------------------------------------------------------------
	// Cost-optimal assignment, minimally extended plan, and keys.
	model := cost.NewPaperModel("U", []authz.Subject{"H", "I"}, []authz.Subject{"X", "Y", "Z"})
	res, err := assignment.Optimize(sys, an, model, assignment.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== Minimally extended authorized plan (cf. Figure 7) ==")
	fmt.Print(an.Format(res.Extended))
	fmt.Println("\n== Query-plan keys (Definition 6.1) ==")
	for _, k := range res.Extended.Keys {
		fmt.Printf("  %s over %s → holders %v\n", k.ID, k.Attrs, k.Holders)
	}
	fmt.Printf("\n== Economic cost ==\n  %v\n", res.Cost)

	// ------------------------------------------------------------------
	// Dispatch (Figure 8).
	d := dispatch.Partition(res.Extended)
	fmt.Println("\n== Dispatch (Figure 8) ==")
	fmt.Print(d.Format())

	// ------------------------------------------------------------------
	// Execute: plaintext baseline vs. the encrypted extended plan.
	e := exec.NewExecutor()
	loadToyData(e)
	baseline, headers, err := e.RunPlan(plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== Plaintext execution ==")
	fmt.Print(baseline.Format(headers))

	// One ring per plan key; only keys of Paillier-encrypted attributes
	// need a Paillier key pair.
	for _, k := range res.Extended.Keys {
		var ring *crypto.KeyRing
		if res.Extended.NeedsPaillier(k) {
			ring, err = crypto.NewKeyRing(k.ID, 256)
		} else {
			ring, err = crypto.NewSymmetricKeyRing(k.ID)
		}
		if err != nil {
			log.Fatal(err)
		}
		e.Keys.Add(ring)
	}
	consts, err := exec.PrepareConstants(res.Extended.Root, e.Keys, exec.KindsFromCatalog(cat))
	if err != nil {
		log.Fatal(err)
	}
	e.Consts = consts
	extPlan := *plan
	extPlan.Root = res.Extended.Root
	encrypted, _, err := e.RunPlan(&extPlan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== Encrypted execution (same result, data protected in flight) ==")
	fmt.Print(encrypted.Format(headers))
}

// loadToyData fills tiny Hosp/Ins tables.
func loadToyData(e *exec.Executor) {
	hosp := exec.NewTable([]algebra.Attr{
		algebra.A("Hosp", "S"), algebra.A("Hosp", "B"), algebra.A("Hosp", "D"), algebra.A("Hosp", "T"),
	})
	for _, r := range []struct {
		s    string
		b    int64
		d, t string
	}{
		{"123-45-6789", 10957, "stroke", "surgery"},
		{"234-56-7890", 11688, "stroke", "medication"},
		{"345-67-8901", 12053, "flu", "rest"},
		{"456-78-9012", 9131, "stroke", "surgery"},
		{"567-89-0123", 13149, "stroke", "medication"},
		{"678-90-1234", 10592, "asthma", "inhaler"},
	} {
		mustAppend(hosp, []exec.Value{exec.String(r.s), exec.Int(r.b), exec.String(r.d), exec.String(r.t)})
	}
	e.Tables["Hosp"] = hosp

	ins := exec.NewTable([]algebra.Attr{algebra.A("Ins", "C"), algebra.A("Ins", "P")})
	for _, r := range []struct {
		c string
		p float64
	}{
		{"123-45-6789", 180}, {"234-56-7890", 95}, {"345-67-8901", 120},
		{"456-78-9012", 260}, {"567-89-0123", 135}, {"678-90-1234", 75},
		{"789-01-2345", 300},
	} {
		mustAppend(ins, []exec.Value{exec.String(r.c), exec.Float(r.p)})
	}
	e.Tables["Ins"] = ins
}

// mustAppend adds a row, panicking on a width mismatch (a programming error
// in the example's static data).
func mustAppend(t *exec.Table, row []exec.Value) {
	if err := t.Append(row); err != nil {
		panic(err)
	}
}
