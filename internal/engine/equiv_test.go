package engine

import (
	"fmt"
	"sync"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/core"
	"mpq/internal/distsim"
	"mpq/internal/exec"
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

// centralRun is the one reference the distributed engine is checked
// against: pq's extended plan evaluated by exec's row-at-a-time evaluator
// on a single trusted executor that holds every table of cfg, the full key
// store and the plan's constants, each node once, children first. It
// returns the user's answer (the decrypted root, ordered, projected and
// limited by the plan), every node's relation (the root's decrypted), and
// one transfer per cross-subject edge carrying the rows of the shipped
// node's subtree.
func centralRun(t *testing.T, cfg Config, pq *preparedQuery) (*exec.Table, map[algebra.Node]*exec.Table, []distsim.Transfer) {
	t.Helper()
	c := exec.NewExecutor()
	c.Materializing = true
	c.Keys = pq.keys
	c.Consts = pq.consts
	c.Materialized = make(map[algebra.Node]*exec.Table)
	for _, tables := range cfg.Tables {
		for name, tbl := range tables {
			c.Tables[name] = tbl
		}
	}
	ext := pq.result.Extended
	at := ext.Assign.Executor
	var edges []distsim.Transfer
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
				edges = append(edges, distsim.Transfer{From: at(ch), To: at(n), Rows: c.Materialized[ch].Len(), Op: n.Op()})
			}
		}
	})
	if err != nil {
		t.Fatalf("central reference: %v", err)
	}
	if c.Materialized[ext.Root], err = c.DecryptTable(c.Materialized[ext.Root]); err != nil {
		t.Fatalf("central reference: %v", err)
	}
	user := *pq.plan
	user.Root = ext.Root
	answer, _, err := c.RunPlan(&user)
	if err != nil {
		t.Fatalf("central reference: %v", err)
	}
	return answer, c.Materialized, edges
}

// TestBatchPipelineMatchesMaterializing runs the conformance query subset
// under every authorization scenario and checks each run against the
// central reference (centralRun): the answer row for row (equal values in
// equal order), and the ledger edge by edge — the shipped subtree's rows on every unmarked edge,
// and one row per group of the merging group-by on each edge the plan
// marks for partial aggregation.
func TestBatchPipelineMatchesMaterializing(t *testing.T) {
	for _, sc := range tpch.Scenarios() {
		sc := sc
		t.Run(string(sc), func(t *testing.T) {
			cfg := testConfig(t, sc)
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, num := range testQueries {
				got, pq, err := eng.run(nil, querySQL(t, num), nil, nil)
				if err != nil {
					t.Fatalf("Q%d: %v", num, err)
				}
				want, rels, edges := centralRun(t, cfg, pq)
				g, w := rowStrings(got.Table.Rows), rowStrings(want.Rows)
				if len(g) != len(w) {
					t.Fatalf("Q%d: %d rows, want %d", num, len(g), len(w))
				}
				for i := range w {
					if g[i] != w[i] {
						t.Fatalf("Q%d row %d differs:\nstream:  %s\ncentral: %s", num, i, g[i], w[i])
					}
				}
				marked := partialEdgeKeys(pq.result.Extended)
				gotRest, gotMarked := splitLedger(got.Transfers, marked)
				wantRest, wantMarked := splitLedger(edges, marked)
				if diff := ledgerDiff(gotRest, wantRest); diff != "" {
					t.Errorf("Q%d: transfer ledgers differ: %s", num, diff)
				}
				for key, g := range marked {
					if len(gotMarked[key]) != 1 || len(wantMarked[key]) != 1 {
						t.Errorf("Q%d: marked edge %s shipped %d times, reference edges %d, want one each", num, key,
							len(gotMarked[key]), len(wantMarked[key]))
						continue
					}
					if rows, groups := gotMarked[key][0].Rows, rels[g].Len(); rows != groups {
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
		resp, err := eng.QueryStreamCtx(nil, sqlText, func(h []string, rows [][]exec.Value) error {
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
				_, err := eng.QueryStreamCtx(nil, querySQL(t, num), func(_ []string, rows [][]exec.Value) error {
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
