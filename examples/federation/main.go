// Command federation runs a full multi-provider federation round on TPC-H
// data: the user plans a cross-authority query, the optimizer picks a
// cost-minimal authorized assignment under the UAPenc scenario (providers
// see everything encrypted only), the plan is partitioned into per-subject
// sub-queries that are signed and sealed (Figure 8), keys are distributed
// per Definition 6.1, and the plan is executed across the simulated network
// with real encryption. The distributed result is verified against a
// trusted centralized execution.
package main

import (
	"cmp"
	"crypto/rsa"
	"fmt"
	"log"
	"slices"

	"mpq/internal/algebra"
	"mpq/internal/assignment"
	"mpq/internal/authz"
	"mpq/internal/dispatch"
	"mpq/internal/distsim"
	"mpq/internal/exec"
	"mpq/internal/planner"
	"mpq/internal/tpch"
)

func main() {
	const sf = 0.002 // ~12k lineitem rows: fast enough for a demo run
	cat := tpch.Catalog(sf)
	tables := tpch.Generate(sf, 2024)

	// The query: TPC-H Q10 (returned item reporting) — customer, orders,
	// lineitem, nation across both authorities.
	q := tpch.Queries()[9]
	fmt.Printf("== TPC-H Q%d: %s ==\n%s\n", q.Num, q.Name, q.SQL)

	plan, err := planner.New(cat).PlanSQL(q.SQL)
	if err != nil {
		log.Fatal(err)
	}

	// Trusted centralized baseline.
	trusted := exec.NewExecutor()
	for name, t := range tables {
		trusted.Tables[name] = t
	}
	want, headers, err := trusted.RunPlan(plan)
	if err != nil {
		log.Fatal(err)
	}

	// Authorization scenario UAPenc and the cost model of Section 7.
	sys := tpch.System(cat, tpch.UAPenc)
	an := sys.Analyze(plan.Root, nil)
	if err := an.Feasible(); err != nil {
		log.Fatal(err)
	}
	res, err := assignment.Optimize(sys, an, tpch.Model(), assignment.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== Optimized assignment ==")
	fmt.Print(an.Format(res.Extended))
	fmt.Printf("cost: %v\n", res.Cost)

	// ------------------------------------------------------------------
	// Dispatch: fragments, signatures, sealed envelopes.
	d := dispatch.Partition(res.Extended)
	fmt.Println("\n== Dispatch fragments ==")
	fmt.Print(d.Format())

	user, err := dispatch.NewIdentity(tpch.User, 1024)
	if err != nil {
		log.Fatal(err)
	}
	identities := map[authz.Subject]*dispatch.Identity{}
	recipients := map[authz.Subject]*rsa.PublicKey{}
	for _, f := range d.Fragments {
		if _, ok := identities[f.Subject]; !ok {
			id, err := dispatch.NewIdentity(f.Subject, 1024)
			if err != nil {
				log.Fatal(err)
			}
			identities[f.Subject] = id
			recipients[f.Subject] = id.Public()
		}
	}
	envs, err := dispatch.SealDispatch(d, user, recipients, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsealed %d sub-queries (signed by %s, encrypted per recipient)\n", len(envs), user.Subject)
	for _, f := range d.Fragments {
		env := envs[f.ID]
		req, err := dispatch.Open(env, identities[env.To], user.Public())
		if err != nil {
			log.Fatalf("verification failed for %s: %v", f.ID, err)
		}
		fmt.Printf("  %s verified by %s\n", req.Fragment, req.To)
	}

	// ------------------------------------------------------------------
	// Distributed execution with real keys.
	nw := distsim.NewNetwork()
	for name, t := range tables {
		auth := authz.Subject(cat.Relation(name).Authority)
		nw.Subject(auth).Tables[name] = t
	}
	full, err := nw.DistributeKeys(res.Extended, 256)
	if err != nil {
		log.Fatal(err)
	}
	consts, err := exec.PrepareConstants(res.Extended.Root, full, exec.KindsFromCatalog(cat))
	if err != nil {
		log.Fatal(err)
	}
	got, _, err := nw.ExecuteParallel(res.Extended, consts)
	if err != nil {
		log.Fatal(err)
	}

	// Finalize at the user: decrypt the received result with the
	// query-plan keys, then apply ordering, projection, and limit.
	fexec := exec.NewExecutor()
	fexec.Keys = full
	decrypted, err := fexec.DecryptTable(got)
	if err != nil {
		log.Fatal(err)
	}
	fexec.Materialized = map[algebra.Node]*exec.Table{res.Extended.Root: decrypted}
	extPlan := *plan
	extPlan.Root = res.Extended.Root
	final, _, err := fexec.RunPlan(&extPlan)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n== Distributed result (%d rows) vs centralized (%d rows) ==\n", final.Len(), want.Len())
	if final.Len() != want.Len() {
		log.Fatalf("MISMATCH: distributed execution diverged")
	}
	show := want.Len()
	if show > 5 {
		show = 5
	}
	fmt.Println("centralized:")
	preview := exec.Table{Schema: want.Schema, Rows: want.Rows[:show]}
	fmt.Print(preview.Format(headers))
	fmt.Println("distributed:")
	preview2 := exec.Table{Schema: final.Schema, Rows: final.Rows[:show]}
	fmt.Print(preview2.Format(headers))

	// The ledger fills in completion order; print it in a stable one.
	// Bytes are left out: Paillier ciphertexts vary in length with their
	// randomness, so only the row counts repeat from run to run.
	slices.SortFunc(nw.Transfers, func(a, b distsim.Transfer) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To),
			cmp.Compare(a.Rows, b.Rows), cmp.Compare(a.Op, b.Op))
	})
	rows := 0
	for _, t := range nw.Transfers {
		rows += t.Rows
	}
	fmt.Printf("\n== Network ledger: %d transfers, %d rows total ==\n", len(nw.Transfers), rows)
	for _, t := range nw.Transfers {
		fmt.Printf("  %s → %s: %d rows (for %s)\n", t.From, t.To, t.Rows, trunc(t.Op, 48))
	}
}

func trunc(s string, n int) string {
	if len(s) > n {
		return s[:n-3] + "..."
	}
	return s
}
