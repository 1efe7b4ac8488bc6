// Command outsourced demonstrates the extension sketched in the paper's
// conclusions: a source relation that is not stored at its data authority
// but — partially encrypted — at a third-party storage provider. The
// hospital H outsources Hosp to the storage provider W with the sensitive
// identifier and diagnosis deterministically encrypted at rest; queries
// still execute collaboratively, the join runs directly over the stored
// ciphertexts, and the at-rest key doubles as the query-plan key for the
// join attributes.
package main

import (
	"fmt"
	"log"
	"sort"

	"mpq/internal/algebra"
	"mpq/internal/assignment"
	"mpq/internal/authz"
	"mpq/internal/core"
	"mpq/internal/cost"
	"mpq/internal/crypto"
	"mpq/internal/distsim"
	"mpq/internal/exec"
	"mpq/internal/sql"
)

func main() {
	hS := algebra.A("Hosp", "S")
	hD := algebra.A("Hosp", "D")
	hT := algebra.A("Hosp", "T")
	iC := algebra.A("Ins", "C")
	iP := algebra.A("Ins", "P")

	// Hosp lives at storage provider W; S and D are encrypted at rest
	// under the authority's key kStore. Ins stays at its authority I.
	hosp := algebra.NewStoredBase("Hosp", "H", "W",
		[]algebra.Attr{hS, hD, hT}, []algebra.Attr{hS, hD}, "kStore", 1000,
		map[algebra.Attr]float64{hS: 11, hD: 20, hT: 20})
	ins := algebra.NewBase("Ins", "I", []algebra.Attr{iC, iP}, 5000,
		map[algebra.Attr]float64{iC: 11, iP: 8})
	sel := algebra.NewSelect(hosp, &algebra.CmpAV{A: hD, Op: sql.OpEq, V: sql.StringValue("stroke")}, 0.1)
	join := algebra.NewJoin(sel, ins, &algebra.CmpAA{L: hS, Op: sql.OpEq, R: iC}, 0.0002)
	grp := algebra.NewGroupBy1(join, []algebra.Attr{hT}, sql.AggAvg, iP, false, 10)
	root := algebra.NewSelect(grp, &algebra.CmpAV{A: iP, Op: sql.OpGt, V: sql.NumberValue(100), Agg: sql.AggAvg}, 0.5)

	// Authorizations: W is authorized exactly for the stored form (T
	// plaintext, the rest encrypted).
	pol := authz.NewPolicy()
	for _, r := range []struct{ rel, spec string }{
		{"Hosp", "[S,B,D,T ; ] -> H"},
		{"Hosp", "[S,D,T ; ] -> U"},
		{"Hosp", "[T ; S,B,D] -> W"},
		{"Hosp", "[D,T ; S] -> X"},
		{"Hosp", "[B,D,T ; S] -> Y"},
		{"Ins", "[C,P ; ] -> I"},
		{"Ins", "[C,P ; ] -> U"},
		{"Ins", "[ ; C,P] -> X"},
		{"Ins", "[P ; C] -> Y"},
	} {
		pol.MustParseRule(r.rel, r.spec)
	}
	sys := core.NewSystem(pol, "H", "I", "U", "W", "X", "Y")
	an := sys.Analyze(root, nil)
	if err := an.Feasible(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("== Stored-encrypted leaf: candidates and profiles ==")
	fmt.Print(an.Format(nil))

	model := cost.NewPaperModel("U", []authz.Subject{"H", "I"}, []authz.Subject{"W", "X", "Y"})
	res, err := assignment.Optimize(sys, an, model, assignment.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== Optimized extended plan ==")
	fmt.Print(an.Format(res.Extended))
	fmt.Println("\n== Keys (the at-rest key is reused for the join cluster) ==")
	for _, k := range res.Extended.Keys {
		fmt.Printf("  %s over %s → holders %v\n", k.ID, k.Attrs, k.Holders)
	}

	// ------------------------------------------------------------------
	// Execute: the authority encrypts the relation once (at rest), hands
	// it to W, and the distributed execution runs over the ciphertexts.
	storageRing, err := crypto.NewKeyRing("kStore", 256)
	if err != nil {
		log.Fatal(err)
	}
	plainHosp := buildHosp()
	storedHosp, err := encryptAtRest(plainHosp, storageRing, map[string]bool{"S": true, "D": true})
	if err != nil {
		log.Fatal(err)
	}

	nw := distsim.NewNetwork()
	nw.AddStorageRing(storageRing)
	nw.Subject("W").Tables["Hosp"] = storedHosp
	nw.Subject("I").Tables["Ins"] = buildIns()
	full, err := nw.DistributeKeys(res.Extended, 256)
	if err != nil {
		log.Fatal(err)
	}
	kinds := exec.AttrKinds{hS: exec.KString, hD: exec.KString, hT: exec.KString, iC: exec.KString, iP: exec.KFloat}
	consts, err := exec.PrepareConstants(res.Extended.Root, full, kinds)
	if err != nil {
		log.Fatal(err)
	}
	got, _, err := nw.ExecuteParallel(res.Extended, consts)
	if err != nil {
		log.Fatal(err)
	}
	user := exec.NewExecutor()
	user.Keys = full
	final, err := user.DecryptTable(got)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== Result (decrypted at the user) ==")
	fmt.Print(final.Format([]string{"T", "avg(P)"}))

	// The ledger fills in completion order; print it in a stable one.
	sort.Slice(nw.Transfers, func(i, j int) bool { return nw.Transfers[i].From > nw.Transfers[j].From })
	fmt.Printf("\n== Transfers ==\n")
	for _, tr := range nw.Transfers {
		fmt.Printf("  %s → %s: %d rows, %d bytes\n", tr.From, tr.To, tr.Rows, tr.Bytes)
	}
	fmt.Println("\nNote: Hosp.S and Hosp.D never existed in plaintext outside the")
	fmt.Println("authority H — not at the storage provider, not at the computing")
	fmt.Println("providers, not on the wire.")
}

func buildHosp() *exec.Table {
	t := exec.NewTable([]algebra.Attr{
		algebra.A("Hosp", "S"), algebra.A("Hosp", "D"), algebra.A("Hosp", "T"),
	})
	for _, r := range []struct{ s, d, g string }{
		{"111", "stroke", "surgery"},
		{"222", "stroke", "medication"},
		{"333", "flu", "rest"},
		{"444", "stroke", "surgery"},
		{"555", "asthma", "inhaler"},
		{"666", "stroke", "medication"},
	} {
		mustAppend(t, []exec.Value{exec.String(r.s), exec.String(r.d), exec.String(r.g)})
	}
	return t
}

func buildIns() *exec.Table {
	t := exec.NewTable([]algebra.Attr{algebra.A("Ins", "C"), algebra.A("Ins", "P")})
	for _, r := range []struct {
		c string
		p float64
	}{
		{"111", 180}, {"222", 95}, {"333", 120}, {"444", 260}, {"555", 75}, {"666", 140},
	} {
		mustAppend(t, []exec.Value{exec.String(r.c), exec.Float(r.p)})
	}
	return t
}

func encryptAtRest(t *exec.Table, ring *crypto.KeyRing, cols map[string]bool) (*exec.Table, error) {
	out := exec.NewTable(t.Schema)
	for _, row := range t.Rows {
		nr := make([]exec.Value, len(row))
		for i, v := range row {
			if cols[t.Schema[i].Name] {
				cv, err := exec.EncryptValue(ring, algebra.SchemeDeterministic, v)
				if err != nil {
					return nil, err
				}
				nr[i] = cv
			} else {
				nr[i] = v
			}
		}
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}

// mustAppend adds a row, panicking on a width mismatch (a programming error
// in the example's static data).
func mustAppend(t *exec.Table, row []exec.Value) {
	if err := t.Append(row); err != nil {
		panic(err)
	}
}
