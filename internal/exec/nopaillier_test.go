package exec

import (
	"errors"
	"math/big"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/crypto"
	"mpq/internal/sql"
)

// TestPaillierOverSymmetricRingIsTypedError drives every Paillier entry
// point of the executor with a symmetric-only ring (a key whose attributes
// need no Paillier pair, so none was generated): each must return an error
// wrapping crypto.ErrNoPaillier, never dereference the missing key.
func TestPaillierOverSymmetricRingIsTypedError(t *testing.T) {
	sym, err := crypto.NewSymmetricKeyRing("kS")
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor()
	e.Keys.Add(sym)
	v := algebra.A("R", "v")
	tbl := NewTable([]algebra.Attr{v})
	vals := make([]Value, 32)
	for i := range vals {
		vals[i] = Int(int64(i))
		tbl.Append([]Value{vals[i]})
	}
	e.Tables["R"] = tbl
	enc := algebra.NewEncrypt(algebra.NewBase("R", "A", []algebra.Attr{v}, 32, nil), []algebra.Attr{v})
	enc.Schemes[v] = algebra.SchemePaillier
	enc.KeyIDs[v] = "kS"

	// A Paillier ciphertext under kS, as a provider holding a PK-less ring
	// for the key would receive it.
	ct := func() *Cipher {
		return &Cipher{Scheme: algebra.SchemePaillier, KeyID: "kS", Phe: big.NewInt(5), Div: 1, Plain: KInt}
	}
	withSum := func() *aggVec {
		return &aggVec{fn: sql.AggSum, count: []int64{1}, sum: []float64{0}, phe: []*big.Int{big.NewInt(3)}, pheC: []*Cipher{ct()}}
	}

	for name, run := range map[string]func() error{
		"EncryptValue": func() error { _, err := EncryptValue(sym, algebra.SchemePaillier, Int(1)); return err },
		"EncryptColumn": func() error {
			_, err := EncryptColumn(sym, algebra.SchemePaillier, vals[:4])
			return err
		},
		"encryptColumnPar": func() error {
			return encryptColumnPar(e, sym, algebra.SchemePaillier, vals, make([]Value, len(vals)))
		},
		"Build(Encrypt)": func() error { _, err := e.Build(enc); return err },
		"DecryptValue":   func() error { _, err := e.DecryptValue(ct()); return err },
		"DecryptTable": func() error {
			_, err := e.DecryptTable(&Table{Schema: []algebra.Attr{v}, Rows: [][]Value{{Enc(ct())}}})
			return err
		},
		"decryptColumn": func() error {
			col := NewColumn([]Value{Enc(ct()), Enc(ct())})
			_, err := e.decryptColumn(&col, e.Keys.Get)
			return err
		},
		"aggVec.absorb": func() error {
			return withSum().absorb(0, 1, Enc(ct()), newGroupTable(nil, nil, nil, e.ringCache()))
		},
		"groupTable.ingest": func() error {
			gt := newGroupTable(nil, []int{0}, []algebra.AggSpec{{Func: sql.AggSum, Attr: v}}, e.ringCache())
			return gt.ingest(&Batch{Cols: []Column{NewColumn([]Value{Enc(ct()), Enc(ct())})}, N: 2})
		},
	} {
		if err := run(); !errors.Is(err, crypto.ErrNoPaillier) {
			t.Errorf("%s over a symmetric-only ring: err = %v, want ErrNoPaillier", name, err)
		}
	}
}
