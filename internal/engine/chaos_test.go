package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpq/internal/distsim"
	"mpq/internal/exec"
	"mpq/internal/tpch"
)

// The chaos suite's contract, from the lifecycle-robustness work: under any
// injected fault — errors, panics, or delays at operator and edge points —
// every query must end in either a byte-correct result or a clean, typed
// error. Never a hang, a leaked goroutine, or a corrupt partial result.

// waitGoroutines polls until the goroutine count settles back to the
// baseline (transient background work — randomizer refills, timer
// goroutines — is allowed to finish), failing with a full stack dump if it
// never does: the leak gate of the chaos and cancellation suites.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// chaosKind arms one fault shape on the shared Faults carrier. The rotation
// covers both halves of the harness (operator and edge points), all three
// fault kinds, and both deterministic and probabilistic triggers.
type chaosKind struct {
	name string
	arm  func(f *distsim.Faults)
	// clean is true when the fault never makes the query fail (delays):
	// the run must then produce byte-correct results.
	clean bool
}

func chaosKinds() []chaosKind {
	return []chaosKind{
		{name: "op-error-nth", arm: func(f *distsim.Faults) {
			f.Edges = nil
			f.Ops = &exec.FaultPoints{Seed: 7, Ops: map[string]exec.FaultSpec{
				"*": {Kind: exec.FaultError, NthBatch: 2},
			}}
		}},
		{name: "op-panic-nth", arm: func(f *distsim.Faults) {
			f.Edges = nil
			f.Ops = &exec.FaultPoints{Seed: 7, Ops: map[string]exec.FaultSpec{
				"*": {Kind: exec.FaultPanic, NthBatch: 1},
			}}
		}},
		{name: "op-error-prob", arm: func(f *distsim.Faults) {
			f.Edges = nil
			f.Ops = &exec.FaultPoints{Seed: 7, Ops: map[string]exec.FaultSpec{
				"*": {Kind: exec.FaultError, Prob: 0.1},
			}}
		}},
		{name: "edge-error-nth", arm: func(f *distsim.Faults) {
			f.Ops = nil
			f.Edges = map[string]exec.FaultSpec{
				"*": {Kind: exec.FaultError, NthBatch: 1},
			}
		}},
		{name: "edge-panic-nth", arm: func(f *distsim.Faults) {
			f.Ops = nil
			f.Edges = map[string]exec.FaultSpec{
				"*": {Kind: exec.FaultPanic, NthBatch: 1},
			}
		}},
		{name: "edge-delay", clean: true, arm: func(f *distsim.Faults) {
			f.Ops = nil
			f.Edges = map[string]exec.FaultSpec{
				"*": {Kind: exec.FaultDelay, NthBatch: 1, Delay: 2 * time.Millisecond},
			}
		}},
	}
}

// TestChaosSuite drives all 22 TPC-H queries three times, each pass on a
// fresh engine with the fault kinds rotated by one more place, so every
// query meets three different kinds. Acceptable outcomes per run: a result
// byte-identical to the unfaulted oracle, an error wrapping
// exec.ErrInjected, or a recovered *exec.PanicError. Anything else — a
// hang, a wrong result, a raw panic escaping, goroutines left behind —
// fails the suite.
func TestChaosSuite(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()

	oracle, err := New(testConfig(t, tpch.UAPenc))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int][]byte)
	for _, q := range tpch.Queries() {
		resp, err := oracle.Query(q.SQL)
		if err != nil {
			t.Fatalf("Q%d oracle: %v", q.Num, err)
		}
		want[q.Num] = canon(resp.Table)
	}

	kinds := chaosKinds()
	for r := 0; r < 3; r++ {
		t.Run(fmt.Sprintf("rotation=%d", r), func(t *testing.T) {
			faults := &distsim.Faults{Seed: 7}
			cfg := testConfig(t, tpch.UAPenc)
			cfg.Faults = faults
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var injected, panics, clean int
			for qi, q := range tpch.Queries() {
				k := kinds[(qi+r)%len(kinds)]
				// The miss runs unfaulted, so the faulted run is the plan's
				// second execution, whose encrypt operators fill the
				// ciphertext column cache in Open, before their first batch:
				// the rotation's faults land beside and after fills at every
				// kind of point.
				requireOracle := func(stage string) {
					t.Helper()
					faults.Ops, faults.Edges = nil, nil
					resp, err := eng.Query(q.SQL)
					if err != nil {
						t.Fatalf("Q%d/%s %s: %v", q.Num, k.name, stage, err)
					}
					if g := canon(resp.Table); !bytes.Equal(g, want[q.Num]) {
						t.Fatalf("Q%d/%s %s: result differs from the oracle\ngot:\n%s\nwant:\n%s",
							q.Num, k.name, stage, g, want[q.Num])
					}
				}
				requireOracle("miss")
				k.arm(faults)
				resp, err := eng.Query(q.SQL)
				var pe *exec.PanicError
				switch {
				case err == nil:
					if g := canon(resp.Table); !bytes.Equal(g, want[q.Num]) {
						t.Errorf("Q%d/%s: corrupt result survived injection\ngot:\n%s\nwant:\n%s",
							q.Num, k.name, g, want[q.Num])
					}
					clean++
				case k.clean:
					t.Errorf("Q%d/%s: delay fault must not fail the query: %v", q.Num, k.name, err)
				case errors.Is(err, exec.ErrInjected):
					injected++
				case errors.As(err, &pe):
					panics++
				default:
					t.Errorf("Q%d/%s: unclassified failure (neither injected nor recovered panic): %v",
						q.Num, k.name, err)
				}
				// A fill publishes only once its encryption completed, so the
				// run after the fault (served from that fill, or a fresh fill)
				// is still the oracle's.
				requireOracle("run after the fault")
			}
			// Non-vacuity: the rotation must actually have fired faults of
			// both failing kinds, and the panic counter must account for
			// every recovered panic.
			if injected == 0 {
				t.Error("no injected errors fired across the workload")
			}
			if panics == 0 {
				t.Error("no injected panics fired across the workload")
			}
			if got := eng.met.panics.Value(); got != uint64(panics) {
				t.Errorf("mpq_engine_panics_recovered_total = %d, recovered %d panics", got, panics)
			}
			t.Logf("outcomes: %d clean, %d injected errors, %d recovered panics", clean, injected, panics)
		})
	}
	waitGoroutines(t, baseGoroutines)
}

// TestCancellationSweep cancels every TPC-H query at a randomized batch
// boundary: a counting pass first measures how many batch events the query
// produces, then a second run cancels at a seeded-random event in that
// range via the fault harness's observation hook. Outcome must be either a
// byte-correct result (cancel arrived after the result was sealed) or a
// clean context.Canceled — with no goroutine leaked.
func TestCancellationSweep(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()

	oracle, err := New(testConfig(t, tpch.UAPenc))
	if err != nil {
		t.Fatal(err)
	}

	faults := &distsim.Faults{}
	cfg := testConfig(t, tpch.UAPenc)
	cfg.Faults = faults
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(testSeed))
	var cancelled, completed int
	for _, q := range tpch.Queries() {
		want, err := oracle.Query(q.SQL)
		if err != nil {
			t.Fatalf("Q%d oracle: %v", q.Num, err)
		}

		// Pass 1: count the batch events the query produces end to end.
		var total atomic.Int64
		faults.Ops = &exec.FaultPoints{Hook: func(string, int) { total.Add(1) }}
		resp, err := eng.Query(q.SQL)
		if err != nil {
			t.Fatalf("Q%d counting pass: %v", q.Num, err)
		}
		if g, w := canon(resp.Table), canon(want.Table); !bytes.Equal(g, w) {
			t.Fatalf("Q%d counting pass: result differs from oracle", q.Num)
		}
		if total.Load() == 0 {
			t.Fatalf("Q%d: no batch events observed — hook not wired", q.Num)
		}

		// Pass 2: cancel at a random event index within that range.
		target := 1 + rng.Int63n(total.Load())
		ctx, cancel := context.WithCancel(context.Background())
		var seen atomic.Int64
		faults.Ops = &exec.FaultPoints{Hook: func(string, int) {
			if seen.Add(1) == target {
				cancel()
			}
		}}
		resp, err = eng.QueryCtx(ctx, q.SQL)
		switch {
		case err == nil:
			// Cancel landed after the pipeline drained; the result must
			// still be correct, never partial.
			if g, w := canon(resp.Table), canon(want.Table); !bytes.Equal(g, w) {
				t.Errorf("Q%d: partial result escaped a cancelled run (cancel at event %d)", q.Num, target)
			}
			completed++
		case errors.Is(err, context.Canceled):
			cancelled++
		default:
			t.Errorf("Q%d: cancellation at event %d surfaced as %v, want context.Canceled", q.Num, target, err)
		}
		cancel()

		// Pass 2 was the plan's second execution, whose encrypt operators
		// fill the ciphertext column cache in Open. The cancel landed after
		// a fragment's fill was published, or stopped a fill still running
		// within one batch of work, publishing nothing: either way the next
		// run is still the oracle's.
		faults.Ops = nil
		resp, err = eng.Query(q.SQL)
		if err != nil {
			t.Fatalf("Q%d after the cancelled run: %v", q.Num, err)
		}
		if g, w := canon(resp.Table), canon(want.Table); !bytes.Equal(g, w) {
			t.Fatalf("Q%d after the cancelled run differs from the oracle", q.Num)
		}
	}
	if cancelled == 0 {
		t.Error("no run observed its cancellation — the sweep was vacuous")
	}
	if got := eng.met.cancels.Value(); got != uint64(cancelled) {
		t.Errorf("mpq_engine_canceled_total = %d, observed %d cancelled runs", got, cancelled)
	}
	t.Logf("sweep: %d cancelled cleanly, %d completed before the cancel", cancelled, completed)
	waitGoroutines(t, baseGoroutines)
}

// TestDeadlineStopsWork proves Config.QueryTimeout observably stops a
// running query: with every operator delayed 25ms per batch, a 50ms
// deadline must surface context.DeadlineExceeded within a few batches of
// work — not after the delays have been paid in full — and increment the
// deadline metric.
func TestDeadlineStopsWork(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()

	faults := &distsim.Faults{}
	cfg := testConfig(t, tpch.UAPenc)
	cfg.Faults = faults
	cfg.QueryTimeout = 50 * time.Millisecond
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	faults.Ops = &exec.FaultPoints{Seed: 7, Ops: map[string]exec.FaultSpec{
		"*": {Kind: exec.FaultDelay, Prob: 1, Delay: 25 * time.Millisecond},
	}}

	start := time.Now()
	_, err = eng.Query(querySQL(t, 1))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline run returned %v, want context.DeadlineExceeded", err)
	}
	// Q1 aggregates thousands of lineitem rows; paying 25ms per batch per
	// operator to completion would take many seconds. Abort-within-a-batch
	// means the run dies shortly after the 50ms deadline.
	if elapsed > 3*time.Second {
		t.Errorf("deadline exceeded after %v — cancellation is not batch-bounded", elapsed)
	}
	if got := eng.met.timeouts.Value(); got != 1 {
		t.Errorf("mpq_engine_deadline_exceeded_total = %d, want 1", got)
	}
	waitGoroutines(t, baseGoroutines)
}

// TestCallerDeadlineOverridesDefault proves a caller deadline (mpqd's
// ?timeout=) takes precedence over a generous engine default.
func TestCallerDeadlineOverridesDefault(t *testing.T) {
	faults := &distsim.Faults{}
	cfg := testConfig(t, tpch.UAPenc)
	cfg.Faults = faults
	cfg.QueryTimeout = time.Hour
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	faults.Ops = &exec.FaultPoints{Seed: 7, Ops: map[string]exec.FaultSpec{
		"*": {Kind: exec.FaultDelay, Prob: 1, Delay: 25 * time.Millisecond},
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := eng.QueryCtx(ctx, querySQL(t, 1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("caller deadline run returned %v, want context.DeadlineExceeded", err)
	}
}

// TestPanicIsolation proves a panic inside execution never kills the
// process: it surfaces as a typed *exec.PanicError naming the boundary,
// counts in the panic metric, and the engine keeps serving correct results
// afterwards — including from the now-cached plan.
func TestPanicIsolation(t *testing.T) {
	t.Run("parallel", func(t *testing.T) {
		faults := &distsim.Faults{}
		cfg := testConfig(t, tpch.UAPenc)
		cfg.Faults = faults
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		q6 := querySQL(t, 6)
		want, err := eng.Query(q6) // unfaulted baseline, also caches the plan
		if err != nil {
			t.Fatal(err)
		}

		faults.Ops = &exec.FaultPoints{Ops: map[string]exec.FaultSpec{
			"*": {Kind: exec.FaultPanic, NthBatch: 1},
		}}
		_, err = eng.Query(q6)
		var pe *exec.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("panic run returned %v, want *exec.PanicError", err)
		}
		if kind := ClassifyErr(err); kind != KindPanic {
			t.Errorf("ClassifyErr = %q, want %q", kind, KindPanic)
		}
		if got := eng.met.panics.Value(); got != 1 {
			t.Errorf("mpq_engine_panics_recovered_total = %d, want 1", got)
		}

		faults.Ops = nil
		got, err := eng.Query(q6)
		if err != nil {
			t.Fatalf("engine unusable after recovered panic: %v", err)
		}
		if g, w := canon(got.Table), canon(want.Table); !bytes.Equal(g, w) {
			t.Errorf("post-panic result differs from pre-panic baseline")
		}
	})
}

// TestAdmissionControl exercises the gate deterministically: one query is
// held mid-execution via the fault hook so it provably owns the single
// slot, then a second queues and times out, a third is rejected outright,
// and a fourth gives up while queued — each surfacing its own typed error
// and metric outcome. Releasing the hook lets the held query finish
// normally.
func TestAdmissionControl(t *testing.T) {
	faults := &distsim.Faults{}
	cfg := testConfig(t, tpch.UAPenc)
	cfg.Faults = faults
	cfg.MaxConcurrent = 1
	cfg.MaxQueue = 1
	cfg.QueueWait = 100 * time.Millisecond
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q6 := querySQL(t, 6)
	if _, err := eng.Query(q6); err != nil { // warm the plan outside the gate test
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	faults.Ops = &exec.FaultPoints{Hook: func(string, int) {
		once.Do(func() { close(entered) })
		<-release
	}}

	held := make(chan error, 1)
	go func() {
		_, err := eng.Query(q6)
		held <- err
	}()
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("held query never reached execution")
	}
	if n := len(eng.adm.slots); n != 1 {
		t.Fatalf("inflight gauge reads %d with one held query, want 1", n)
	}

	// Second query: queues (capacity 1), then times out after QueueWait.
	queued := make(chan error, 1)
	go func() {
		_, err := eng.Query(q6)
		queued <- err
	}()
	waitQueueDepth(t, eng, 1)

	// Third query: cap and queue both full — rejected immediately.
	if _, err := eng.Query(q6); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-capacity query returned %v, want ErrOverloaded", err)
	}
	if kind := ClassifyErr(ErrOverloaded); kind != KindOverloaded {
		t.Errorf("ClassifyErr(ErrOverloaded) = %q, want %q", kind, KindOverloaded)
	}

	select {
	case err := <-queued:
		if !errors.Is(err, ErrQueueTimeout) {
			t.Fatalf("queued query returned %v, want ErrQueueTimeout", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("queued query neither timed out nor failed")
	}

	// Fourth query: give up while queued — the context's cause surfaces.
	ctx, cancel := context.WithCancel(context.Background())
	gaveUp := make(chan error, 1)
	go func() {
		_, err := eng.QueryCtx(ctx, q6)
		gaveUp <- err
	}()
	waitQueueDepth(t, eng, 1)
	cancel()
	select {
	case err := <-gaveUp:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned queued query returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("abandoned queued query never returned")
	}

	close(release)
	select {
	case err := <-held:
		if err != nil {
			t.Fatalf("held query failed after release: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("held query never completed after release")
	}
	if n := len(eng.adm.slots); n != 0 {
		t.Errorf("inflight gauge reads %d after all queries finished, want 0", n)
	}
	if got := eng.met.rejected.Value(); got != 1 {
		t.Errorf("admission rejected counter = %d, want 1", got)
	}
	if got := eng.met.queueTimeouts.Value(); got != 1 {
		t.Errorf("admission queue_timeout counter = %d, want 1", got)
	}
	if got := eng.met.admCanceled.Value(); got != 1 {
		t.Errorf("admission canceled counter = %d, want 1", got)
	}
	if got := eng.met.admitted.Value(); got != 2 {
		t.Errorf("admission admitted counter = %d, want 2 (warmup + held)", got)
	}
}

// TestAdmissionClosedLoop is the overload claim by counts: 8 closed-loop
// clients against a 2-slot engine, with no queue and with a 2-deep queue,
// each issuing a fixed number of submissions. Every operator batch is
// delayed, so a running query holds its slot while the other clients arrive
// and the overload does not depend on the scheduler. The engine must keep
// completing queries, shed the excess with ErrOverloaded/ErrQueueTimeout and
// nothing else, account every submission once, and leave no goroutine
// behind.
func TestAdmissionClosedLoop(t *testing.T) {
	const clients, perClient, maxConcurrent = 8, 4, 2
	for _, queue := range []int{0, 2} {
		t.Run(fmt.Sprintf("queue%d", queue), func(t *testing.T) {
			faults := &distsim.Faults{}
			cfg := testConfig(t, tpch.UAPenc)
			cfg.Faults = faults
			cfg.MaxConcurrent = maxConcurrent
			cfg.MaxQueue = queue
			cfg.QueueWait = 20 * time.Millisecond
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			q6 := querySQL(t, 6)
			if _, err := eng.Query(q6); err != nil { // warm the plan outside the gate test
				t.Fatal(err)
			}
			faults.Ops = &exec.FaultPoints{Ops: map[string]exec.FaultSpec{
				"*": {Kind: exec.FaultDelay, Prob: 1, Delay: 5 * time.Millisecond},
			}}

			base := runtime.NumGoroutine()
			var completed, rejected atomic.Uint64
			start := make(chan struct{})
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for i := 0; i < perClient; i++ {
						_, err := eng.Query(q6)
						switch {
						case err == nil:
							completed.Add(1)
						case errors.Is(err, ErrOverloaded), errors.Is(err, ErrQueueTimeout):
							rejected.Add(1)
						default:
							t.Errorf("overloaded engine failed with %v, want ErrOverloaded or ErrQueueTimeout", err)
						}
					}
				}()
			}
			close(start)
			wg.Wait()
			waitGoroutines(t, base)

			done, shed := completed.Load(), rejected.Load()
			if done == 0 {
				t.Error("an overloaded engine stopped serving entirely")
			}
			if shed == 0 {
				t.Errorf("%d clients against cap %d + queue %d produced no rejections", clients, maxConcurrent, queue)
			}
			if done+shed != clients*perClient {
				t.Errorf("completed %d + rejected %d != %d submissions", done, shed, clients*perClient)
			}
			if got := eng.met.rejected.Value() + eng.met.queueTimeouts.Value(); got != shed {
				t.Errorf("admission rejected+queue_timeout counters = %d, clients saw %d", got, shed)
			}
			if got := eng.met.admitted.Value(); got != done+1 {
				t.Errorf("admission admitted counter = %d, want %d (completed + warmup)", got, done+1)
			}
			if n := len(eng.adm.slots); n != 0 {
				t.Errorf("inflight gauge reads %d after all clients finished, want 0", n)
			}
		})
	}
}

// waitQueueDepth polls until exactly n queries sit in the admission queue.
func waitQueueDepth(t *testing.T, eng *Engine, n int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for eng.adm.queued.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("admission queue depth never reached %d (at %d)", n, eng.adm.queued.Load())
		}
		time.Sleep(time.Millisecond)
	}
}
