package engine

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"mpq/internal/distsim"
	"mpq/internal/exec"
	"mpq/internal/planner"
	"mpq/internal/tpch"
)

const (
	testSF           = 0.001
	testSeed         = 99
	testPaillierBits = 128
)

// testQueries is the engine conformance subset: aggregation over Paillier
// sums (Q1, Q6), multi-way joins (Q3, Q10), OPE date ranges, and group-by
// over deterministic ciphertexts.
var testQueries = []int{1, 3, 6, 10}

func testConfig(t testing.TB, sc tpch.Scenario) Config {
	t.Helper()
	cfg := TPCHConfig(sc, testSF, testSeed)
	cfg.PaillierBits = testPaillierBits
	return cfg
}

func querySQL(t testing.TB, num int) string {
	t.Helper()
	for _, q := range tpch.Queries() {
		if q.Num == num {
			return q.SQL
		}
	}
	t.Fatalf("no TPC-H query %d", num)
	return ""
}

// canon serializes a result table to canonical bytes: every row rendered
// with floats rounded to 2 decimals and integers normalized to floats
// (Paillier fixed-point sums of integers decode as integers while plaintext
// accumulation yields floats), rows sorted. Two executions agree iff their
// canonical serializations are byte-identical.
func canon(t *exec.Table) []byte {
	rows := make([]string, len(t.Rows))
	for i, row := range t.Rows {
		var sb strings.Builder
		for _, v := range row {
			sb.WriteByte('|')
			switch v.Kind {
			case exec.KFloat:
				sb.WriteString(exec.Float(math.Round(v.F*100) / 100).String())
			case exec.KInt:
				sb.WriteString(exec.Float(float64(v.I)).String())
			default:
				sb.WriteString(v.String())
			}
		}
		rows[i] = sb.String()
	}
	sort.Strings(rows)
	return []byte(strings.Join(rows, "\n"))
}

// centralized runs a query on a trusted executor holding every base table
// in plaintext: the ground truth the distributed engine must reproduce.
func centralized(t *testing.T, sqlText string) *exec.Table {
	t.Helper()
	cat := tpch.Catalog(testSF)
	trusted := exec.NewExecutor()
	for name, tbl := range tpch.Generate(testSF, testSeed) {
		trusted.Tables[name] = tbl
	}
	plan, err := planner.New(cat).PlanSQL(sqlText)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := trusted.RunPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestEngineMatchesCentralized proves, for every authorization scenario of
// the Section 7 evaluation, that the parallel distributed runtime returns
// byte-identical (canonically serialized) results to trusted centralized
// execution and that a cached re-execution returns the same bytes. (The
// transfer ledger is checked against the Materializing reference in
// TestBatchPipelineMatchesMaterializing.)
func TestEngineMatchesCentralized(t *testing.T) {
	for _, sc := range tpch.Scenarios() {
		sc := sc
		t.Run(string(sc), func(t *testing.T) {
			par, err := New(testConfig(t, sc))
			if err != nil {
				t.Fatal(err)
			}
			for _, num := range testQueries {
				sqlText := querySQL(t, num)
				want := canon(centralized(t, sqlText))

				cold, err := par.Query(sqlText)
				if err != nil {
					t.Fatalf("Q%d: %v", num, err)
				}
				if cold.CacheHit {
					t.Errorf("Q%d: first execution reported a cache hit", num)
				}
				if got := canon(cold.Table); !bytes.Equal(got, want) {
					t.Errorf("Q%d: parallel result differs from centralized\ngot:\n%s\nwant:\n%s", num, got, want)
				}

				cached, err := par.Query(sqlText)
				if err != nil {
					t.Fatalf("Q%d cached: %v", num, err)
				}
				if !cached.CacheHit {
					t.Errorf("Q%d: repeated execution missed the plan cache", num)
				}
				if got := canon(cached.Table); !bytes.Equal(got, want) {
					t.Errorf("Q%d: cached result differs from centralized", num)
				}
			}
		})
	}
}

// TestNewRejectsRemovedMorselKnobs: morsel parallelism is gone, so a
// configuration still asking for it fails at construction with an error that
// says so, instead of silently running single-threaded. Workers 0 and 1
// (both meant one thread per fragment) stay valid.
func TestNewRejectsRemovedMorselKnobs(t *testing.T) {
	for _, workers := range []int{0, 1} {
		cfg := testConfig(t, tpch.UA)
		cfg.Workers = workers
		if _, err := New(cfg); err != nil {
			t.Errorf("Workers %d: %v", workers, err)
		}
	}
	for name, tweak := range map[string]func(*Config){
		"Workers 2":      func(c *Config) { c.Workers = 2 },
		"MorselRows 128": func(c *Config) { c.MorselRows = 128 },
	} {
		cfg := testConfig(t, tpch.UA)
		tweak(&cfg)
		_, err := New(cfg)
		if err == nil {
			t.Errorf("%s accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), "morsel parallelism was removed") {
			t.Errorf("%s: error %q does not name the removal", name, err)
		}
	}
}

// TestNewRejectsRemovedAdaptiveBatch: adaptive batch sizing is gone, so a
// configuration asking for it fails at construction with an error that says
// so. PartialShuffle is ignored either way: plans mark partial aggregation
// themselves.
func TestNewRejectsRemovedAdaptiveBatch(t *testing.T) {
	cfg := testConfig(t, tpch.UA)
	cfg.AdaptiveBatch = true
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "adaptive batch sizing was removed") {
		t.Errorf("AdaptiveBatch: true: got %v, want an error naming the removal", err)
	}
	for _, on := range []bool{false, true} {
		cfg := testConfig(t, tpch.UA)
		cfg.PartialShuffle = on
		if _, err := New(cfg); err != nil {
			t.Errorf("PartialShuffle %v: %v", on, err)
		}
	}
}

func ledgerDiff(a, b []distsim.Transfer) string {
	count := func(ts []distsim.Transfer) map[string]int {
		m := make(map[string]int, len(ts))
		for _, t := range ts {
			m[fmt.Sprintf("%s→%s %s rows=%d", t.From, t.To, t.Op, t.Rows)]++
		}
		return m
	}
	ca, cb := count(a), count(b)
	for k, n := range ca {
		if cb[k] != n {
			return fmt.Sprintf("got %q ×%d, want ×%d", k, n, cb[k])
		}
	}
	for k, n := range cb {
		if ca[k] != n {
			return fmt.Sprintf("want %q ×%d, got ×%d", k, n, ca[k])
		}
	}
	return ""
}
