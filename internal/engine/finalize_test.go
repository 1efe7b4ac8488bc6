package engine

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"mpq/internal/exec"
	"mpq/internal/tpch"
)

// TestFinalizeAcrossBatches runs the finalizer's cross-batch paths: at
// BatchSize 1 and 3 every root result arrives in many batches, so the top-k
// heap (Q3, Q10), the drain-and-sort (Q1), the LIMIT cut inside and past a
// batch, LIMIT 0 and an empty result each see batch boundaries. Query and
// QueryStream must return the same rows in the same order, both must equal
// the centralized oracle, an empty Query result keeps its projected schema
// and headers, and every successful query from either entry point records
// one finalize observation.
func TestFinalizeAcrossBatches(t *testing.T) {
	const (
		scan    = "select o_orderkey, o_totalprice from orders where o_orderdate >= 1100"
		limited = 7
	)
	queries := []tpch.Query{
		{Num: 1, SQL: querySQL(t, 1)},
		{Num: 3, SQL: querySQL(t, 3)},
		{Num: 10, SQL: querySQL(t, 10)},
		{Num: 100, SQL: scan},
		{Num: 101, SQL: fmt.Sprintf("%s limit %d", scan, limited)},
		{Num: 102, SQL: scan + " limit 0"},
		{Num: 103, SQL: scan + " order by o_totalprice desc limit 0"},
		{Num: 104, SQL: "select o_orderkey, o_totalprice from orders where o_totalprice < 0"},
	}
	for _, sc := range []tpch.Scenario{tpch.UA, tpch.UAPenc} {
		for _, batch := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/batch=%d", sc, batch), func(t *testing.T) {
				cfg := testConfig(t, sc)
				cfg.BatchSize = batch
				want := oracleAnswers(t, testSF, testSeed, queries)
				eng, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				finalized := func() float64 {
					return eng.Metrics().Snapshot()["mpq_engine_phase_seconds_count{phase=finalize}"]
				}
				before := finalized()
				for _, q := range queries[:len(queries)-1] {
					got, err := eng.Query(q.SQL)
					if err != nil {
						t.Fatalf("Q%d: %v", q.Num, err)
					}
					var streamed [][]exec.Value
					yields := 0
					if _, err := eng.QueryStreamCtx(nil, q.SQL, func(_ []string, rows [][]exec.Value) error {
						streamed = append(streamed, rows...)
						yields++
						return nil
					}); err != nil {
						t.Fatalf("Q%d stream: %v", q.Num, err)
					}
					if q.Num == 100 && yields < 2 {
						t.Fatalf("the unlimited scan streamed in %d batches: no batch boundary exercised", yields)
					}
					g, s := rowStrings(got.Table.Rows), rowStrings(streamed)
					if strings.Join(g, "\n") != strings.Join(s, "\n") {
						t.Fatalf("Q%d: Query and QueryStream differ\nquery:\n%s\nstream:\n%s", q.Num, g, s)
					}
					if d := want[q.Num].diff(got.Table); d != "" {
						t.Fatalf("Q%d differs from the oracle\n%s", q.Num, d)
					}
					if q.Num != 101 {
						continue
					}
					// LIMIT without ORDER BY picks any rows of the answer:
					// the reference checks their number, this their values.
					all := bytes.Split(want[100].want(), []byte("\n"))
					for _, row := range bytes.Split(want[100].of(got.Table), []byte("\n")) {
						if !slices.ContainsFunc(all, func(l []byte) bool { return bytes.Equal(l, row) }) {
							t.Fatalf("LIMIT row %s is not in the unlimited answer", row)
						}
					}
				}
				empty, err := eng.Query(queries[len(queries)-1].SQL)
				if err != nil {
					t.Fatal(err)
				}
				if empty.Table.Len() != 0 || len(want[104].Rows) != 0 {
					t.Fatalf("empty statement returned %d rows (oracle %d)", empty.Table.Len(), len(want[104].Rows))
				}
				if h := strings.Join(empty.Headers, ","); h != "o_orderkey,o_totalprice" {
					t.Errorf("empty result headers %q", h)
				}
				if s := empty.Table.Schema; len(s) != 2 || s[0].Name != "o_orderkey" || s[1].Name != "o_totalprice" {
					t.Errorf("empty result schema %v, want the projected output columns", s)
				}
				wantObs := 2*(len(queries)-1) + 1
				if got := finalized() - before; got != float64(wantObs) {
					t.Errorf("finalize phase observed %v times for %d successful queries", got, wantObs)
				}
			})
		}
	}
}
