package distsim

import (
	"bytes"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/core"
	"mpq/internal/crypto"
	"mpq/internal/exec"
	"mpq/internal/sqlref"
)

// centralRun answers "did distribution change anything?": the extended plan
// run by the batch pipeline on a single trusted executor holding every
// table of nw's subjects, the full key store and the plan's constants, each
// node once, children first (Build splices the children already run). It
// returns, per cross-subject edge (EdgeKey), the rows of the shipped node's
// subtree: what the edge carries unless the plan marks it for partial
// aggregation. Whether the answer is right is checkAnswer's question.
func centralRun(t *testing.T, nw *Network, ext *core.ExtendedPlan, keys *crypto.KeyStore, consts exec.ConstCache) map[string]int {
	t.Helper()
	c := exec.NewExecutor()
	c.Keys = keys
	c.Consts = consts
	c.Materialized = make(map[algebra.Node]*exec.Table)
	for _, s := range nw.subjects {
		for name, tbl := range s.Tables {
			c.Tables[name] = tbl
		}
	}
	at := ext.Assign.Executor
	shipped := make(map[string]int)
	var err error
	algebra.PostOrder(ext.Root, func(n algebra.Node) {
		if err != nil {
			return
		}
		var rel *exec.Table
		if rel, err = c.Run(n); err != nil {
			return
		}
		c.Materialized[n] = rel
		for _, ch := range n.Children() {
			if at(ch) != at(n) {
				shipped[EdgeKey(at(ch), at(n))] += c.Materialized[ch].Len()
			}
		}
	})
	if err != nil {
		t.Fatalf("central reference: %v", err)
	}
	return shipped
}

// sqlrefAnswer answers sqlText with the SQL reference (internal/sqlref)
// over the plaintext tables of nw's subjects.
func sqlrefAnswer(t *testing.T, nw *Network, sqlText string) *sqlref.Result {
	t.Helper()
	tables := make(map[string]sqlref.Table)
	for _, s := range nw.subjects {
		for name, tbl := range s.Tables {
			ref := sqlref.Table{Rows: plainRows(tbl.Rows)}
			for _, a := range tbl.Schema {
				ref.Cols = append(ref.Cols, a.Name)
			}
			tables[name] = ref
		}
	}
	res, err := sqlref.Query(tables, sqlText)
	if err != nil {
		t.Fatalf("SQL reference: %v", err)
	}
	return res
}

// plainRows converts rows to the reference's Go values; a ciphertext
// renders unequal to any plaintext.
func plainRows(rows [][]exec.Value) [][]any {
	out := make([][]any, len(rows))
	for i, row := range rows {
		out[i] = make([]any, len(row))
		for j, v := range row {
			switch v.Kind {
			case exec.KInt:
				out[i][j] = v.I
			case exec.KFloat:
				out[i][j] = v.F
			case exec.KString:
				out[i][j] = v.S
			case exec.KCipher:
				out[i][j] = v.String()
			}
		}
	}
	return out
}

// answerDiff is "" when rows render to the reference answer's canonical
// bytes, else both renderings.
func answerDiff(ref *sqlref.Result, rows [][]exec.Value) string {
	if g, w := ref.Canon(plainRows(rows)), ref.Canon(ref.Rows); !bytes.Equal(g, w) {
		return "got:\n" + string(g) + "\nwant:\n" + string(w)
	}
	return ""
}
