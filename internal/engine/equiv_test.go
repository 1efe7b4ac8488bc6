package engine

import (
	"fmt"
	"sync"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/core"
	"mpq/internal/distsim"
	"mpq/internal/exec"
	"mpq/internal/obs"
	"mpq/internal/tpch"
)

// rowStrings renders rows for exact, order-sensitive comparison.
func rowStrings(rows [][]exec.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = exec.DisplayString(r)
	}
	return out
}

// TestBatchPipelineMatchesMaterializing runs the conformance query subset
// through two engines per authorization scenario — one on the batch
// streaming pipeline, one on the legacy materializing interior — and diffs
// the distributed results row for row. Both engines decrypt to plaintext,
// so the comparison is exact: equal values in equal order. The ledgers
// match edge for edge, except that an edge the plan marks for partial
// aggregation ships one row per group of its group-by (the materializing
// reference ships the raw rows there).
func TestBatchPipelineMatchesMaterializing(t *testing.T) {
	for _, sc := range tpch.Scenarios() {
		sc := sc
		t.Run(string(sc), func(t *testing.T) {
			batchEng, err := New(testConfig(t, sc))
			if err != nil {
				t.Fatal(err)
			}
			matCfg := testConfig(t, sc)
			matCfg.Materializing = true
			matEng, err := New(matCfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, num := range testQueries {
				sqlText := querySQL(t, num)
				tr := obs.NewTrace()
				got, pq, err := batchEng.run(nil, sqlText, tr, nil)
				if err != nil {
					t.Fatalf("Q%d batch: %v", num, err)
				}
				want, err := matEng.Query(sqlText)
				if err != nil {
					t.Fatalf("Q%d materializing: %v", num, err)
				}
				g, w := rowStrings(got.Table.Rows), rowStrings(want.Table.Rows)
				if len(g) != len(w) {
					t.Fatalf("Q%d: %d rows, want %d", num, len(g), len(w))
				}
				for i := range w {
					if g[i] != w[i] {
						t.Fatalf("Q%d row %d differs:\nbatch:         %s\nmaterializing: %s", num, i, g[i], w[i])
					}
				}
				// The streaming runtime must account the same shipments per
				// edge (multiset of from→to/op/rows) as the materializing one
				// on every unmarked edge, and one row per group (the merging
				// group-by's output rows) on each marked edge.
				marked := partialEdgeKeys(pq.result.Extended)
				gotRest, gotMarked := splitLedger(got.Transfers, marked)
				wantRest, wantMarked := splitLedger(want.Transfers, marked)
				if diff := ledgerDiff(gotRest, wantRest); diff != "" {
					t.Errorf("Q%d: transfer ledgers differ: %s", num, diff)
				}
				for key, g := range marked {
					if len(gotMarked[key]) != 1 || len(wantMarked[key]) != 1 {
						t.Errorf("Q%d: marked edge %s shipped %d/%d times, want once", num, key,
							len(gotMarked[key]), len(wantMarked[key]))
						continue
					}
					if rows, groups := gotMarked[key][0].Rows, tr.ByRef(g).Rows(); int64(rows) != groups {
						t.Errorf("Q%d: marked edge %s shipped %d rows for %d groups", num, key, rows, groups)
					}
				}
			}
		})
	}
}

// partialEdgeKeys maps the ledger identity (from→to op) of each edge ext
// marks for partial aggregation to the group-by the edge folds.
func partialEdgeKeys(ext *core.ExtendedPlan) map[string]*algebra.GroupBy {
	keys := make(map[string]*algebra.GroupBy, len(ext.Partials))
	for shipped, pe := range ext.Partials {
		var consumer algebra.Node = pe.GroupBy
		if len(pe.Selects) > 0 {
			consumer = pe.Selects[len(pe.Selects)-1]
		}
		keys[transferKey(distsim.Transfer{
			From: ext.Assign.Executor(shipped), To: ext.Assign.Executor(pe.GroupBy), Op: consumer.Op(),
		})] = pe.GroupBy
	}
	return keys
}

func transferKey(t distsim.Transfer) string { return fmt.Sprintf("%s→%s %s", t.From, t.To, t.Op) }

// splitLedger separates the transfers on the marked edges from the rest.
func splitLedger(ts []distsim.Transfer, marked map[string]*algebra.GroupBy) ([]distsim.Transfer, map[string][]distsim.Transfer) {
	var rest []distsim.Transfer
	on := make(map[string][]distsim.Transfer)
	for _, t := range ts {
		if k := transferKey(t); marked[k] != nil {
			on[k] = append(on[k], t)
		} else {
			rest = append(rest, t)
		}
	}
	return rest, on
}

// TestQueryStreamMatchesQuery proves the streaming Query variant delivers
// exactly the collected result: same rows, same order, same headers — for
// sorted queries (top-k or drain-and-sort) and unsorted ones (true
// streaming).
func TestQueryStreamMatchesQuery(t *testing.T) {
	eng, err := New(testConfig(t, tpch.UAPenc))
	if err != nil {
		t.Fatal(err)
	}
	for _, num := range testQueries {
		sqlText := querySQL(t, num)
		want, err := eng.Query(sqlText)
		if err != nil {
			t.Fatalf("Q%d: %v", num, err)
		}
		var streamed [][]exec.Value
		var headers []string
		resp, err := eng.QueryStream(sqlText, func(h []string, rows [][]exec.Value) error {
			headers = h
			streamed = append(streamed, rows...)
			return nil
		})
		if err != nil {
			t.Fatalf("Q%d stream: %v", num, err)
		}
		if want.Table.Len() > 0 {
			if len(headers) != len(want.Headers) {
				t.Fatalf("Q%d: streamed headers %v, want %v", num, headers, want.Headers)
			}
			if resp.TimeToFirstRow <= 0 {
				t.Errorf("Q%d: no time-to-first-row recorded", num)
			}
		}
		if resp.Rows != want.Table.Len() {
			t.Fatalf("Q%d: streamed %d rows, want %d", num, resp.Rows, want.Table.Len())
		}
		g, w := rowStrings(streamed), rowStrings(want.Table.Rows)
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("Q%d row %d differs:\nstream: %s\nquery:  %s", num, i, g[i], w[i])
			}
		}
	}
}

// TestQueryStreamConcurrent hammers one engine with concurrent streaming
// queries (exercised under -race in CI): every client must observe its own
// complete, correct stream while fragment workers of many runs exchange
// batches in parallel.
func TestQueryStreamConcurrent(t *testing.T) {
	eng, err := New(testConfig(t, tpch.UAPenc))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int][]string)
	for _, num := range testQueries {
		resp, err := eng.Query(querySQL(t, num))
		if err != nil {
			t.Fatalf("Q%d: %v", num, err)
		}
		want[num] = rowStrings(resp.Table.Rows)
	}

	const perQuery = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(testQueries)*perQuery)
	for _, num := range testQueries {
		for c := 0; c < perQuery; c++ {
			wg.Add(1)
			go func(num int) {
				defer wg.Done()
				var got [][]exec.Value
				_, err := eng.QueryStream(querySQL(t, num), func(_ []string, rows [][]exec.Value) error {
					got = append(got, rows...)
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
				g := rowStrings(got)
				if len(g) != len(want[num]) {
					errs <- errMismatch{num, len(g), len(want[num])}
					return
				}
				for i := range g {
					if g[i] != want[num][i] {
						errs <- errMismatch{num, i, -1}
						return
					}
				}
			}(num)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type errMismatch struct {
	query, got, want int
}

func (e errMismatch) Error() string {
	if e.want < 0 {
		return "stream mismatch in query result"
	}
	return "streamed row count differs from drained result"
}
