package engine

import (
	"bytes"
	"path/filepath"
	"testing"

	"mpq/internal/exec"
	"mpq/internal/tpch"
)

// spillBudget is far below the working set of every workload query at the
// test scale factor: group-by tables and join build sides cross it within
// the first batches, forcing the grace-hash spill path on every query shape.
const spillBudget = 4 << 10

// TestSpillForcedMatchesInMemory runs the full 22-query TPC-H workload under
// a 4 KiB memory budget and diffs every result against unbudgeted execution
// (canonical serialization: rows sorted, so the comparison is insensitive to
// the per-partition group emission order spilling introduces). It also
// proves the budget actually bit — spill partitions were created and read
// back — and that no spill files outlive their runs.
func TestSpillForcedMatchesInMemory(t *testing.T) {
	base, err := New(testConfig(t, tpch.UAPenc))
	if err != nil {
		t.Fatal(err)
	}
	before := exec.ReadSpillStats()
	// Every fragment runs on one goroutine; the cell keeps the name of the
	// single-worker run it has always been.
	t.Run("workers=1", func(t *testing.T) {
		cfg := testConfig(t, tpch.UAPenc)
		cfg.MemBudget = spillBudget
		cfg.SpillDir = t.TempDir()
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range tpch.Queries() {
			want, err := base.Query(q.SQL)
			if err != nil {
				t.Fatalf("Q%d baseline: %v", q.Num, err)
			}
			got, err := eng.Query(q.SQL)
			if err != nil {
				t.Fatalf("Q%d under %d-byte budget: %v", q.Num, spillBudget, err)
			}
			if g, w := canon(got.Table), canon(want.Table); !bytes.Equal(g, w) {
				t.Errorf("Q%d: spill-forced result differs from in-memory\ngot:\n%s\nwant:\n%s", q.Num, g, w)
			}
		}
		left, err := filepath.Glob(filepath.Join(cfg.SpillDir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 0 {
			t.Errorf("orphaned spill files after runs: %v", left)
		}
	})
	after := exec.ReadSpillStats()
	if after.Partitions <= before.Partitions {
		t.Error("no spill partitions created under a 4 KiB budget")
	}
	if after.BytesWritten <= before.BytesWritten || after.BytesRead <= before.BytesRead {
		t.Errorf("spill I/O not recorded: before %+v after %+v", before, after)
	}
	if after.Spills <= before.Spills {
		t.Error("no budget-exhaustion events recorded")
	}
}

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
