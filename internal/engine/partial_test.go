package engine

import (
	"testing"

	"mpq/internal/tpch"
)

// TestPartialAggregationShipsOneRowPerGroup runs the conformance queries
// under UAPenc: results must be the SQL reference's, and Q1 — a group-by reached
// through a selection across the shuffle edge, the one UAPenc shape the
// plan marks — must ship exactly one row per result group on its marked
// edge, where the reference's shipped subtree holds more rows than that.
func TestPartialAggregationShipsOneRowPerGroup(t *testing.T) {
	cfg := testConfig(t, tpch.UAPenc)
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, num := range testQueries {
		q := tpch.Query{Num: num, SQL: querySQL(t, num)}
		got, pq, err := eng.run(nil, q.SQL, nil, nil)
		if err != nil {
			t.Fatalf("Q%d: %v", num, err)
		}
		want := oracleAnswers(t, testSF, testSeed, []tpch.Query{q})[num]
		if d := want.diff(got.Table); d != "" {
			t.Errorf("Q%d: result differs from the SQL reference\n%s", num, d)
		}
		_, edges := centralRun(t, cfg, pq)
		if num != 1 {
			continue
		}
		marked := partialEdgeKeys(pq.result.Extended)
		if len(marked) != 1 {
			t.Fatalf("Q1: %d partial-aggregation marks, want 1", len(marked))
		}
		_, on := splitLedger(got.Transfers, marked)
		_, raw := splitLedger(edges, marked)
		for key := range marked {
			if ts := on[key]; len(ts) != 1 || ts[0].Rows != len(want.Rows) {
				t.Errorf("Q1: edge %s shipped %v, want one transfer of %d rows (one per group)", key, ts, len(want.Rows))
			}
			if len(raw[key]) != 1 || raw[key][0].Rows <= len(want.Rows) {
				t.Errorf("Q1: reference edge %s holds %v, want more raw rows than groups", key, raw[key])
			}
		}
	}
}
