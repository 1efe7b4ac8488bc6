package engine

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"

	"mpq/internal/exec"
	"mpq/internal/tpch"
)

// heapGrowth runs fn and returns how far the live heap rose above its level
// at the start, sampled every millisecond from runtime/metrics. It is a
// sampled figure, for logging only.
func heapGrowth(fn func()) int64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() int64 {
		metrics.Read(sample)
		return int64(sample[0].Value.Uint64())
	}
	runtime.GC()
	start := read()
	peak := start
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if h := read(); h > peak {
					peak = h
				}
			}
		}
	}()
	fn()
	close(stop)
	wg.Wait()
	if h := read(); h > peak {
		peak = h
	}
	return peak - start
}

// TestMemBudgetRefusesCleanly pins the memory budget's contract: with a
// budget set, every run of every TPC-H query either answers exactly the
// unbudgeted engine's answer (canonical bytes) or fails with an error that
// errors.Is matches to exec.ErrMemoryBudget and whose message names the
// operator, the subject and the bytes. Each query runs three times — the
// plan-cache miss, the ciphertext-cache fill and a served run — so refusals
// also land mid-fill, and a refused fill must leave the next run right or
// refused. The 64 KiB budget refuses some queries and answers others; each
// query's sampled heap growth is logged beside its outcome.
func TestMemBudgetRefusesCleanly(t *testing.T) {
	const budget = 64 << 10
	base, err := New(testConfig(t, tpch.UAPenc))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, tpch.UAPenc)
	cfg.MemBudget = budget
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	namesSubject := func(msg string) bool {
		for _, s := range cfg.Subjects {
			if strings.Contains(msg, fmt.Sprintf(" at %s: ", s)) {
				return true
			}
		}
		return false
	}
	var refused, answered int
	for _, q := range tpch.Queries() {
		resp, err := base.Query(q.SQL)
		if err != nil {
			t.Fatalf("Q%d unbudgeted: %v", q.Num, err)
		}
		want := canon(resp.Table)
		var outcomes []string
		growth := heapGrowth(func() {
			for _, stage := range []string{"miss", "fill", "serve"} {
				resp, err := eng.Query(q.SQL)
				switch {
				case err == nil:
					if g := canon(resp.Table); !bytes.Equal(g, want) {
						t.Errorf("Q%d %s: budgeted answer differs from the unbudgeted one\ngot:\n%s\nwant:\n%s",
							q.Num, stage, g, want)
					}
					outcomes = append(outcomes, "answered")
				case errors.Is(err, exec.ErrMemoryBudget):
					msg := err.Error()
					if !strings.Contains(msg, "needs ") || !strings.Contains(msg, fmt.Sprintf("of %d reserved", budget)) ||
						!namesSubject(msg) {
						t.Errorf("Q%d %s: refusal %q does not name the operator, the subject and the bytes", q.Num, stage, msg)
					}
					outcomes = append(outcomes, "refused")
				default:
					t.Errorf("Q%d %s: failed with %v, want the answer or exec.ErrMemoryBudget", q.Num, stage, err)
				}
			}
		})
		if strings.Contains(strings.Join(outcomes, " "), "refused") {
			refused++
		} else {
			answered++
		}
		t.Logf("Q%02d %-26s heap +%.1f MiB", q.Num, strings.Join(outcomes, "/"), float64(growth)/(1<<20))
	}
	if refused == 0 || answered == 0 {
		t.Errorf("%d queries refused and %d answered under %d bytes: the budget must refuse some and answer others",
			refused, answered, budget)
	}
}
