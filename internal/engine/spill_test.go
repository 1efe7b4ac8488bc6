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

// TestPartialShuffleReducesBytes runs the aggregation-heavy conformance
// queries with pre-shuffle partial aggregation on and off: results must be
// identical and the edges feeding a group-by must ship fewer rows (one
// partial row per group instead of the full filtered input). The assertion
// is on rows, not bytes — the two engines hold distinct key material, so
// Paillier ciphertext byte counts are not comparable across them — and it
// names Q1 specifically: its plan is a group-by reached through a selection
// chain across the shuffle edge, exactly the shape the fold targets.
func TestPartialShuffleReducesBytes(t *testing.T) {
	off, err := New(testConfig(t, tpch.UAPenc))
	if err != nil {
		t.Fatal(err)
	}
	onCfg := testConfig(t, tpch.UAPenc)
	onCfg.PartialShuffle = true
	on, err := New(onCfg)
	if err != nil {
		t.Fatal(err)
	}
	shippedRows := func(r *Response) int {
		n := 0
		for _, tr := range r.Transfers {
			n += tr.Rows
		}
		return n
	}
	for _, num := range testQueries {
		sqlText := querySQL(t, num)
		want, err := off.Query(sqlText)
		if err != nil {
			t.Fatalf("Q%d off: %v", num, err)
		}
		got, err := on.Query(sqlText)
		if err != nil {
			t.Fatalf("Q%d partial-shuffle: %v", num, err)
		}
		if g, w := canon(got.Table), canon(want.Table); !bytes.Equal(g, w) {
			t.Errorf("Q%d: partial-shuffle result differs\ngot:\n%s\nwant:\n%s", num, g, w)
		}
		if num == 1 {
			if g, w := shippedRows(got), shippedRows(want); g >= w {
				t.Errorf("Q1: partial shuffle did not reduce shipped rows (%d -> %d)", w, g)
			}
		}
	}
}

// TestAdaptiveBatchMatches proves adaptive batch sizing (scans starting at
// small windows and growing geometrically) changes only batch boundaries,
// never results.
func TestAdaptiveBatchMatches(t *testing.T) {
	plain, err := New(testConfig(t, tpch.UAPenc))
	if err != nil {
		t.Fatal(err)
	}
	adCfg := testConfig(t, tpch.UAPenc)
	adCfg.AdaptiveBatch = true
	adaptive, err := New(adCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, num := range testQueries {
		sqlText := querySQL(t, num)
		want, err := plain.Query(sqlText)
		if err != nil {
			t.Fatalf("Q%d: %v", num, err)
		}
		got, err := adaptive.Query(sqlText)
		if err != nil {
			t.Fatalf("Q%d adaptive: %v", num, err)
		}
		if g, w := canon(got.Table), canon(want.Table); !bytes.Equal(g, w) {
			t.Errorf("Q%d: adaptive-batch result differs\ngot:\n%s\nwant:\n%s", num, g, w)
		}
	}
}
