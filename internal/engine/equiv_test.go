package engine

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/core"
	"mpq/internal/distsim"
	"mpq/internal/exec"
	"mpq/internal/sqlref"
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

// centralRun answers "did distribution change anything?": pq's extended
// plan run by the batch pipeline on a single trusted executor that holds
// every table of cfg, the full key store and the plan's constants, each
// node once, children first (Build splices the children already run). It
// returns every node's relation and one transfer per cross-subject edge
// carrying the rows of the shipped node's subtree. Whether the answer is
// right is the SQL reference's question (oracleAnswers).
func centralRun(t *testing.T, cfg Config, pq *preparedQuery) (map[algebra.Node]*exec.Table, []distsim.Transfer) {
	t.Helper()
	c := exec.NewExecutor()
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
	return c.Materialized, edges
}

// TestBatchPipelineMatchesMaterializing runs the conformance query subset
// under every authorization scenario. Each answer must be the SQL
// reference's (oracleAnswers), and the ledger must be the central run's
// (centralRun) edge by edge: the shipped subtree's rows on every unmarked
// edge, and one row per group of the merging group-by on each edge the plan
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
			var queries []tpch.Query
			for _, num := range testQueries {
				queries = append(queries, tpch.Query{Num: num, SQL: querySQL(t, num)})
			}
			want := oracleAnswers(t, testSF, testSeed, queries)
			for _, q := range queries {
				num := q.Num
				got, pq, err := eng.run(nil, q.SQL, nil, nil)
				if err != nil {
					t.Fatalf("Q%d: %v", num, err)
				}
				if d := want[num].diff(got.Table); d != "" {
					t.Fatalf("Q%d differs from the SQL reference\n%s", num, d)
				}
				rels, edges := centralRun(t, cfg, pq)
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

// refAnswer is the SQL reference's answer to one statement
// (internal/sqlref).
type refAnswer struct{ *sqlref.Result }

// want returns the canonical bytes an engine answer must render to. An
// aggregate without GROUP BY over no input is the one known divergence:
// SQL answers one row of NULLs, the engine no row (ROADMAP 16). The check
// pins the engine's answer there so that the fix shows.
func (r refAnswer) want() []byte {
	if r.EmptyAggregate {
		return r.Canon(nil)
	}
	return r.Canon(r.Rows)
}

// of renders an engine answer to canonical bytes under r's ORDER BY and
// LIMIT.
func (r refAnswer) of(tbl *exec.Table) []byte { return r.Canon(plainRows(tbl.Rows)) }

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

// diff is "" when tbl renders to the reference's bytes, else both renderings.
func (r refAnswer) diff(tbl *exec.Table) string {
	if g, w := r.of(tbl), r.want(); !bytes.Equal(g, w) {
		return fmt.Sprintf("got:\n%s\nwant:\n%s", g, w)
	}
	return ""
}

// plainTables copies tables into the reference's plain values.
func plainTables(tables map[string]*exec.Table) map[string]sqlref.Table {
	out := make(map[string]sqlref.Table, len(tables))
	for name, tbl := range tables {
		ref := sqlref.Table{Rows: plainRows(tbl.Rows)}
		for _, a := range tbl.Schema {
			ref.Cols = append(ref.Cols, a.Name)
		}
		out[name] = ref
	}
	return out
}

// sqlrefAnswer answers one statement over tables with the SQL reference.
func sqlrefAnswer(t *testing.T, tables map[string]sqlref.Table, sqlText string) refAnswer {
	t.Helper()
	res, err := sqlref.Query(tables, sqlText)
	if err != nil {
		t.Fatalf("SQL reference: %v", err)
	}
	return refAnswer{res}
}

var oracleMemo struct {
	sync.Mutex
	tables  map[string]map[string]sqlref.Table
	answers map[string]refAnswer
}

// oracleAnswers answers the queries with the SQL reference over the
// plaintext tables tpch.Generate(sf, seed). It shares no code with the
// engine, the planner or the executor. Answers do not depend on the
// scenario, so each (sf, seed, statement) is answered once per test binary.
func oracleAnswers(t *testing.T, sf float64, seed int64, queries []tpch.Query) map[int]refAnswer {
	t.Helper()
	oracleMemo.Lock()
	defer oracleMemo.Unlock()
	if oracleMemo.tables == nil {
		oracleMemo.tables = make(map[string]map[string]sqlref.Table)
		oracleMemo.answers = make(map[string]refAnswer)
	}
	data := fmt.Sprint(sf, "/", seed)
	if oracleMemo.tables[data] == nil {
		oracleMemo.tables[data] = plainTables(tpch.Generate(sf, seed))
	}
	want := make(map[int]refAnswer, len(queries))
	for _, q := range queries {
		key := data + "/" + q.SQL
		if _, ok := oracleMemo.answers[key]; !ok {
			oracleMemo.answers[key] = sqlrefAnswer(t, oracleMemo.tables[data], q.SQL)
		}
		want[q.Num] = oracleMemo.answers[key]
	}
	return want
}
