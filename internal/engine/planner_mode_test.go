package engine

import (
	"bytes"
	"strings"
	"testing"

	"mpq/internal/planner"
	"mpq/internal/tpch"
)

// TestPlannerModeEquivalence is the greedy planner's oracle suite: every
// TPC-H query, on every authorization scenario, must produce exactly the
// rows of a materializing-runtime oracle engine (the simplest interior,
// FROM-order plans). Join reordering permutes row order and float
// accumulation order, so rows are compared canonicalized (sorted, floats
// rounded) — any divergence means greedy ordering changed the *answer*, not
// the plan. The default cost planner's cells are
// TestEncCacheEquivalence's. Exercised under -race in CI.
func TestPlannerModeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full 22-query × scenario sweep")
	}
	queries := tpch.Queries()
	for _, sc := range tpch.Scenarios() {
		sc := sc
		t.Run(string(sc), func(t *testing.T) {
			oracleCfg := testConfig(t, sc)
			oracleCfg.Materializing = true
			oracle, err := New(oracleCfg)
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[int][]byte, len(queries))
			for _, q := range queries {
				resp, err := oracle.Query(q.SQL)
				if err != nil {
					t.Fatalf("oracle Q%d: %v", q.Num, err)
				}
				want[q.Num] = canon(resp.Table)
			}
			t.Run(string(planner.ModeGreedy), func(t *testing.T) {
				cfg := testConfig(t, sc)
				cfg.PlannerMode = planner.ModeGreedy
				eng, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range queries {
					got, err := eng.Query(q.SQL)
					if err != nil {
						t.Fatalf("Q%d: %v", q.Num, err)
					}
					if g := canon(got.Table); !bytes.Equal(g, want[q.Num]) {
						t.Errorf("Q%d: greedy result differs from oracle\ngot:\n%s\nwant:\n%s",
							q.Num, g, want[q.Num])
					}
				}
			})
		})
	}
}

// TestNewRejectsUnknownPlannerMode: only the cost and greedy planners exist,
// so a configuration naming any other mode — including the retired
// "adaptive" — fails at construction with an error naming the valid modes,
// instead of silently planning some other way.
func TestNewRejectsUnknownPlannerMode(t *testing.T) {
	cfg := testConfig(t, tpch.UA)
	for _, mode := range []planner.Mode{"", planner.ModeCost, planner.ModeGreedy} {
		cfg.PlannerMode = mode
		if _, err := New(cfg); err != nil {
			t.Errorf("mode %q: %v", mode, err)
		}
	}
	for _, mode := range []planner.Mode{"adaptive", "Greedy", "fed"} {
		cfg.PlannerMode = mode
		_, err := New(cfg)
		if err == nil {
			t.Errorf("mode %q accepted", mode)
			continue
		}
		for _, want := range []string{string(mode), string(planner.ModeCost), string(planner.ModeGreedy)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("mode %q: error %q does not name %q", mode, err, want)
			}
		}
	}
}
