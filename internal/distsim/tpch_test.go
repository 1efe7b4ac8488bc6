package distsim

import (
	"maps"
	"math"
	"slices"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/assignment"
	"mpq/internal/authz"
	"mpq/internal/core"
	"mpq/internal/dispatch"
	"mpq/internal/exec"
	"mpq/internal/planner"
	"mpq/internal/tpch"
)

// TestTPCHDistributedMatchesCentralized optimizes a representative subset
// of the TPC-H workload under UAPenc, executes each optimized extended plan
// across the simulated network (authorities hold their tables, providers
// hold public key material only), and verifies the decrypted distributed
// results row-for-row against trusted centralized plaintext execution.
// Each run's ledger must be the edges of the Figure 8 dispatch
// (checkDispatchRan).
//
// The subset covers every operator the workload uses: multi-way joins
// (Q3, Q5, Q10), range and equality selections over ciphertexts, Paillier
// sums and averages (Q1, Q6), OPE date ranges, group-by on deterministic
// ciphertexts, HAVING (Q11, Q18), IN-desugar (Q12), NOT/LIKE plaintext
// pinning (Q13), and disjunctive cross-relation predicates (Q19).
func TestTPCHDistributedMatchesCentralized(t *testing.T) {
	const sf = 0.001
	cat := tpch.Catalog(sf)
	tables := tpch.Generate(sf, 99)
	pl := planner.New(cat)
	sys := tpch.System(cat, tpch.UAPenc)
	m := tpch.Model()
	kinds := exec.KindsFromCatalog(cat)

	subset := map[int]bool{1: true, 3: true, 5: true, 6: true, 10: true, 11: true,
		12: true, 13: true, 18: true, 19: true, 22: true}

	for _, q := range tpch.Queries() {
		if !subset[q.Num] {
			continue
		}
		q := q
		t.Run(q.Name, func(t *testing.T) {
			plan, err := pl.PlanSQL(q.SQL)
			if err != nil {
				t.Fatal(err)
			}

			// Trusted centralized baseline.
			trusted := exec.NewExecutor()
			for name, tbl := range tables {
				trusted.Tables[name] = tbl
			}
			want, _, err := trusted.RunPlan(plan)
			if err != nil {
				t.Fatal(err)
			}

			// Optimize under UAPenc and execute across the network.
			an := sys.Analyze(plan.Root, nil)
			res, err := assignment.Optimize(sys, an, m, assignment.Options{})
			if err != nil {
				t.Fatal(err)
			}
			nw := NewNetwork()
			for name, tbl := range tables {
				auth := authz.Subject(cat.Relation(name).Authority)
				nw.Subject(auth).Tables[name] = tbl
			}
			full, err := nw.DistributeKeys(res.Extended, testPaillierBits)
			if err != nil {
				t.Fatal(err)
			}
			consts, err := exec.PrepareConstants(res.Extended.Root, full, kinds)
			if err != nil {
				t.Fatal(err)
			}
			got, run, err := nw.ExecuteParallel(res.Extended, consts)
			if err != nil {
				t.Fatal(err)
			}
			checkDispatchRan(t, res.Extended, run)

			// User-side finalization: decrypt, order, project, limit.
			fexec := exec.NewExecutor()
			fexec.Keys = full
			dec, err := fexec.DecryptTable(got)
			if err != nil {
				t.Fatal(err)
			}
			fexec.Materialized = materialize(res.Extended.Root, dec)
			extPlan := *plan
			extPlan.Root = res.Extended.Root
			final, _, err := fexec.RunPlan(&extPlan)
			if err != nil {
				t.Fatal(err)
			}

			compareTables(t, q.Num, want, final)

			// Providers never hold symmetric material under UAPenc.
			for _, prov := range tpch.Providers() {
				for _, id := range nw.Subject(prov).Keys.IDs() {
					ring, _ := nw.Subject(prov).Keys.Get(id)
					if ring.CanDecrypt() {
						t.Errorf("provider %s holds symmetric key %s", prov, id)
					}
				}
			}
		})
	}
}

// checkDispatchRan fails the test unless the run's transfers, as a
// multiset of (From, To, Op), are the edges leaving the non-root fragments
// of dispatch.Partition(ext): (f.Subject, executor(f.Consumer),
// f.Consumer.Op()). The requests the user signs are then the fragments
// that ran, one shipment per request. Each fragment must sit at its Index,
// and its Consumer must be the parent of its root, run by another subject.
func checkDispatchRan(t *testing.T, ext *core.ExtendedPlan, run []Transfer) {
	t.Helper()
	type edge struct {
		from, to authz.Subject
		op       string
	}
	want := make(map[edge]int)
	d := dispatch.Partition(ext)
	at := ext.Assign.Executor
	for i, f := range d.Fragments {
		if f.Index != i {
			t.Errorf("%s has Index %d at position %d", f.ID, f.Index, i)
		}
		if f == d.Root {
			if f.Consumer != nil {
				t.Errorf("root %s ships to %s", f.ID, f.Consumer.Op())
			}
			continue
		}
		if f.Consumer == nil || !slices.Contains(f.Consumer.Children(), f.Root) || at(f.Consumer) == f.Subject {
			t.Fatalf("%s does not record the edge leaving its root %s", f.ID, f.Root.Op())
		}
		want[edge{f.Subject, at(f.Consumer), f.Consumer.Op()}]++
	}
	got := make(map[edge]int)
	for _, tr := range run {
		got[edge{tr.From, tr.To, tr.Op}]++
	}
	if !maps.Equal(got, want) {
		t.Errorf("ledger is not the dispatch: %d transfers for %d requests\nran:      %v\ndispatch: %v",
			len(run), len(d.Fragments)-1, got, want)
	}
}

// materialize builds a Materialized map feeding one pre-computed table.
func materialize(root algebra.Node, t *exec.Table) map[algebra.Node]*exec.Table {
	return map[algebra.Node]*exec.Table{root: t}
}

// compareTables compares result tables as unordered multisets of rendered
// rows, with numeric tolerance (Paillier fixed-point vs float accumulation
// can differ in the last decimals).
func compareTables(t *testing.T, qnum int, want, got *exec.Table) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Q%d: rows = %d, want %d", qnum, got.Len(), want.Len())
	}
	key := func(row []exec.Value) string {
		out := ""
		for _, v := range row {
			switch v.Kind {
			case exec.KFloat:
				// Round to 2 decimals for a stable multiset key.
				out += "|" + exec.Float(math.Round(v.F*100)/100).String()
			case exec.KInt:
				// Paillier sums of integers decode as integers while
				// plaintext accumulation yields floats: normalize.
				out += "|" + exec.Float(float64(v.I)).String()
			default:
				out += "|" + v.String()
			}
		}
		return out
	}
	wantSet := map[string]int{}
	for _, row := range want.Rows {
		wantSet[key(row)]++
	}
	for _, row := range got.Rows {
		k := key(row)
		if wantSet[k] == 0 {
			t.Errorf("Q%d: unexpected row %s", qnum, k)
			continue
		}
		wantSet[k]--
	}
	for k, n := range wantSet {
		if n != 0 {
			t.Errorf("Q%d: missing row %s ×%d", qnum, k, n)
		}
	}
}
