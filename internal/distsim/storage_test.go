package distsim

import (
	"math"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/core"
	"mpq/internal/crypto"
	"mpq/internal/exec"
	"mpq/internal/sql"
)

// TestStoredEncryptedBaseDistributed runs the paper's concluding extension
// end to end: Hosp is hosted at a third-party storage provider W with S and
// D deterministically encrypted at rest under a pre-established key. The
// selection and join execute over the stored ciphertexts at a provider; the
// decrypted distributed result matches a trusted plaintext baseline.
func TestStoredEncryptedBaseDistributed(t *testing.T) {
	hS := algebra.A("Hosp", "S")
	hD := algebra.A("Hosp", "D")
	hT := algebra.A("Hosp", "T")
	iC := algebra.A("Ins", "C")
	iP := algebra.A("Ins", "P")

	hosp := algebra.NewStoredBase("Hosp", "H", "W",
		[]algebra.Attr{hS, hD, hT}, []algebra.Attr{hS, hD}, "kStore", 8, nil)
	ins := algebra.NewBase("Ins", "I", []algebra.Attr{iC, iP}, 10, nil)
	sel := algebra.NewSelect(hosp, &algebra.CmpAV{A: hD, Op: sql.OpEq, V: sql.StringValue("stroke")}, 0.5)
	join := algebra.NewJoin(sel, ins, &algebra.CmpAA{L: hS, Op: sql.OpEq, R: iC}, 0.1)
	grp := algebra.NewGroupBy1(join, []algebra.Attr{hT}, sql.AggAvg, iP, false, 4)
	root := algebra.NewSelect(grp, &algebra.CmpAV{A: iP, Op: sql.OpGt, V: sql.NumberValue(100), Agg: sql.AggAvg}, 0.5)

	pol := examplePolicy()
	pol.MustGrant("Hosp", "W", []string{"T"}, []string{"S", "B", "D"})
	sys := core.NewSystem(pol, "H", "I", "U", "W", "X", "Y")
	an := sys.Analyze(root, nil)
	if err := an.Feasible(); err != nil {
		t.Fatal(err)
	}
	lambda := core.Assignment{sel: "X", join: "X", grp: "X", root: "Y"}
	ext, err := sys.Extend(an, lambda)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-establish the storage key and encrypt the stored table with it.
	storageRing, err := crypto.NewKeyRing("kStore", testPaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	plainHosp := hospTable()
	storedHosp, err := encryptColumns(plainHosp, storageRing, map[string]bool{"S": true, "D": true})
	if err != nil {
		t.Fatal(err)
	}

	nw := NewNetwork()
	nw.AddStorageRing(storageRing)
	nw.Subject("W").Tables["Hosp"] = storedHosp
	nw.Subject("I").Tables["Ins"] = insTable()
	full, err := nw.DistributeKeys(ext, testPaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	kinds := exec.AttrKinds{hS: exec.KString, hD: exec.KString, hT: exec.KString, iC: exec.KString, iP: exec.KFloat}
	consts, err := exec.PrepareConstants(ext.Root, full, kinds)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := nw.ExecuteParallel(ext, consts)
	if err != nil {
		t.Fatalf("%v\n%s", err, algebra.Format(ext.Root, nil))
	}

	// Trusted baseline: plaintext everywhere.
	trusted := exec.NewExecutor()
	trusted.Tables["Hosp"] = plainHosp
	trusted.Tables["Ins"] = insTable()
	plainRoot := algebra.NewSelect(
		algebra.NewGroupBy1(
			algebra.NewJoin(
				algebra.NewSelect(
					algebra.NewBase("Hosp", "H", []algebra.Attr{hS, hD, hT}, 8, nil),
					&algebra.CmpAV{A: hD, Op: sql.OpEq, V: sql.StringValue("stroke")}, 0.5),
				algebra.NewBase("Ins", "I", []algebra.Attr{iC, iP}, 10, nil),
				&algebra.CmpAA{L: hS, Op: sql.OpEq, R: iC}, 0.1),
			[]algebra.Attr{hT}, sql.AggAvg, iP, false, 4),
		&algebra.CmpAV{A: iP, Op: sql.OpGt, V: sql.NumberValue(100), Agg: sql.AggAvg}, 0.5)
	want, err := trusted.Run(plainRoot)
	if err != nil {
		t.Fatal(err)
	}

	// Decrypt the distributed result at the user and compare.
	userExec := exec.NewExecutor()
	userExec.Keys = full
	final, err := userExec.DecryptTable(got)
	if err != nil {
		t.Fatal(err)
	}
	if final.Len() != want.Len() {
		t.Fatalf("rows = %d, want %d\n%s\nvs\n%s", final.Len(), want.Len(), final.Format(nil), want.Format(nil))
	}
	wantMap := map[string]float64{}
	for _, row := range want.Rows {
		f, _ := row[1].AsFloat()
		wantMap[row[0].S] = f
	}
	for _, row := range final.Rows {
		f, _ := row[1].AsFloat()
		if wf, ok := wantMap[row[0].S]; !ok || math.Abs(wf-f) > 1e-6 {
			t.Errorf("group %q = %v, want %v", row[0].S, f, wantMap[row[0].S])
		}
	}

	// The data never left W in plaintext for S and D: the W→X transfer
	// happened (stored ciphertexts shipped), and W held the storage ring.
	if bytesBetween(nw.Transfers, "W", "X") == 0 {
		t.Errorf("expected W→X shipment of the stored relation")
	}
}

// encryptColumns deterministically encrypts the named columns of a table
// under the ring (at-rest encryption by the data authority before
// outsourcing storage).
func encryptColumns(t *exec.Table, ring *crypto.KeyRing, cols map[string]bool) (*exec.Table, error) {
	out := exec.NewTable(t.Schema)
	encIdx := map[int]bool{}
	for i, a := range t.Schema {
		if cols[a.Name] {
			encIdx[i] = true
		}
	}
	for _, row := range t.Rows {
		nr := make([]exec.Value, len(row))
		for i, v := range row {
			if !encIdx[i] {
				nr[i] = v
				continue
			}
			cv, err := exec.EncryptValue(ring, algebra.SchemeDeterministic, v)
			if err != nil {
				return nil, err
			}
			nr[i] = cv
		}
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}
