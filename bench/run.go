package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"mpq/internal/authz"
	"mpq/internal/distsim"
	"mpq/internal/engine"
	"mpq/internal/exec"
	"mpq/internal/tpch"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output, with exactly
// these keys.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is what one run of one workload reports.
type result struct {
	resultLine
	Passes   int      // whole passes completed by the slowest client
	Samples  int      // latency samples behind the percentiles
	Failures []string // every failed operation, one line each
	Notes    []string
}

// endToEnd lists the metrics a user of the engine would see, measured in the
// timed phase with tracing off. BENCHMARK.json carries the same names with
// their regression bounds; bench_test.go keeps the two in step.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p95_ms", "ms"},
	{"shipped_kb_per_query", "KiB"},
	{"peak_rss_mb", "MiB"},
}

// env is one system under test: generated data, an engine over it with every
// knob at its default, and the plaintext oracle over the same tables.
type env struct {
	w      workload
	seed   int64
	cfg    engine.Config
	eng    *engine.Engine
	oracle *oracle
	// scenario is the workload's policy as generated, never handed to the
	// engine: the source of the rule a churn cycle's grant step restores.
	scenario *authz.Policy
}

// setUp generates the data from the seed, starts the engine, and runs the
// warm-up pass (pass -1 of every client) that fills the plan cache where the
// workload repeats statements. The time it returns ends before the warm-up
// replies are checked: the oracle is the benchmark's, not the engine's.
func setUp(w workload, seed int64) (*env, time.Duration, error) {
	t0 := time.Now()
	cfg := engine.TPCHConfig(w.scenario, w.sf, seed)
	eng, err := engine.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	e := &env{
		w: w, seed: seed, cfg: cfg, eng: eng,
		oracle:   newOracle(cfg.Catalog, cfg.Tables),
		scenario: tpch.Policy(cfg.Catalog, w.scenario),
	}
	var warm []sample
	for c := 0; c < w.clients; c++ {
		pass, _, _, err := e.enginePass(w.pass(seed, c, -1), false, nil)
		if err != nil {
			return nil, 0, err
		}
		warm = append(warm, pass...)
	}
	took := time.Since(t0)
	if failures := e.check("warm-up", warm); len(failures) > 0 {
		return nil, 0, fmt.Errorf("%d of %d warm-up queries failed, first: %s", len(failures), len(warm), failures[0])
	}
	return e, took, nil
}

// Set-up is repeated until it has taken setUpBudget in total (at most
// maxSetUps times) and the median is reported: cheap set-ups are dominated by
// a handful of random prime searches and one sample of them is noise.
const (
	setUpBudget = 3 * time.Second
	maxSetUps   = 9
)

// write applies a policy step through the engine and returns how long the
// engine took.
func (e *env) write(st step) (time.Duration, error) {
	t0 := time.Now()
	switch st.op {
	case opRevoke:
		if _, ok := e.eng.Revoke(st.rel, authz.Any); !ok {
			return 0, fmt.Errorf("revoke %s: no 'any' rule to remove", st.rel)
		}
	case opGrant:
		plain, enc := anyRule(e.scenario, st.rel)
		if _, err := e.eng.Grant(st.rel, authz.Any, plain, enc); err != nil {
			return 0, fmt.Errorf("grant %s: %w", st.rel, err)
		}
	}
	return time.Since(t0), nil
}

// sample is one query as a client saw it. The result table is kept only
// until the pass it belongs to has been checked.
type sample struct {
	query     int
	sql       string
	latency   time.Duration
	table     *exec.Table
	transfers []distsim.Transfer
	shipped   int64
	hit       bool
	stale     bool // served under another authorization version than was current at issue
	err       error
}

// issue runs one statement as a client would and records what came back.
func (e *env) issue(st step, traced bool) sample {
	s := sample{query: st.query, sql: st.sql}
	issued := e.eng.AuthzVersion()
	var resp *engine.Response
	t0 := time.Now()
	if traced {
		resp, _, s.err = e.eng.QueryTraced(st.sql)
	} else {
		resp, s.err = e.eng.Query(st.sql)
	}
	s.latency = time.Since(t0)
	if s.err == nil {
		s.table, s.transfers, s.shipped, s.hit = resp.Table, resp.Transfers, resp.BytesShipped(), resp.CacheHit
		s.stale = resp.AuthzVersion != issued
	}
	return s
}

// enginePass walks a script through the engine once and returns the query
// samples in order and how long each policy write took. After each step it
// calls walk, if set, with the step.
func (e *env) enginePass(script []step, traced bool, walk func(step) error) (samples []sample, grants, revokes []float64, err error) {
	for _, st := range script {
		if st.op == opQuery {
			samples = append(samples, e.issue(st, traced))
		} else {
			d, err := e.write(st)
			if err != nil {
				return nil, nil, nil, err
			}
			if st.op == opGrant {
				grants = append(grants, us(d))
			} else {
				revokes = append(revokes, us(d))
			}
		}
		if walk != nil {
			if err := walk(st); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	return samples, grants, revokes, nil
}

// check compares the samples of one pass with the plaintext oracle and
// returns one line per failure. It lets go of every sample's result table:
// what a run keeps per query must not grow with the number of queries it
// completes, or peak_rss_mb would rise with throughput.
func (e *env) check(label string, samples []sample) []string {
	var failures []string
	for i := range samples {
		s := &samples[i]
		var why string
		switch want, err := e.oracle.answer(s.sql); {
		case s.err != nil:
			why = "error: " + s.err.Error()
		case err != nil:
			why = "oracle error: " + err.Error()
		case s.stale:
			why = "served under a stale authorization version"
		case canon(s.table) != want:
			why = "result differs from plaintext execution"
		}
		s.table = nil
		if why != "" {
			failures = append(failures, fmt.Sprintf("%s #%d Q%d: %s", label, i, s.query, why))
		}
	}
	return failures
}

// minPasses is the least number of whole passes a timed phase runs, however
// short --seconds is. A 95th percentile over fewer than tailSamples samples
// is not a tail (ten samples beyond it need 200).
const (
	minPasses   = 2
	tailSamples = 200
)

// client is what one closed-loop caller of the timed phase brings back.
type client struct {
	// clock runs while the client walks a pass and stands still while the
	// pass is generated and its replies are checked.
	clock    time.Duration
	passes   int
	lats     []float64 // ms
	shipped  int64
	failures []string
	err      error
}

// walk issues whole passes until the client's clock has run for `seconds`
// and minPasses are done. Each pass is checked as soon as it ends, so no
// more than one pass of result tables is alive per client.
func (cl *client) walk(e *env, c int, seconds float64) {
	for k := 0; k < minPasses || cl.clock.Seconds() < seconds; k++ {
		script := e.w.pass(e.seed, c, k)
		t0 := time.Now()
		pass, _, _, err := e.enginePass(script, false, nil)
		cl.clock += time.Since(t0)
		if err != nil {
			cl.err = err
			return
		}
		cl.failures = append(cl.failures, e.check(fmt.Sprintf("client %d pass %d", c, k), pass)...)
		for _, s := range pass {
			cl.lats = append(cl.lats, ms(s.latency))
			cl.shipped += s.shipped
		}
		cl.passes++
	}
}

// runTimed is the --trace 0 run: set-up, the closed-loop timed phase with
// tracing off, then the remaining set-up repeats.
func runTimed(w workload, seed int64, seconds float64) (*result, error) {
	e, took, err := setUp(w, seed)
	if err != nil {
		return nil, err
	}
	setUps, setUpTotal := []float64{took.Seconds()}, took

	clients := make([]client, w.clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			clients[c].walk(e, c, seconds)
		}(c)
	}
	wg.Wait()
	// Read before the set-up repeats below, whose engines are not the
	// workload's memory.
	rss := peakRSSMiB()

	res := &result{Passes: clients[0].passes}
	res.Metrics = make(map[string]metric)
	var (
		lats    []float64
		shipped int64
		qps     float64
	)
	for _, cl := range clients {
		if cl.err != nil {
			return nil, cl.err
		}
		res.Failures = append(res.Failures, cl.failures...)
		lats = append(lats, cl.lats...)
		shipped += cl.shipped
		// Each client over its own clock: the one that ends its last pass
		// first does not sit in the other's wall time.
		qps += float64(len(cl.lats)-len(cl.failures)) / cl.clock.Seconds()
		if cl.passes < res.Passes {
			res.Passes = cl.passes
		}
	}
	res.Attempted, res.Failed = len(lats), len(res.Failures)
	res.Correct = res.Failed == 0
	res.Samples = len(lats)
	if res.Samples < tailSamples {
		res.Notes = append(res.Notes, fmt.Sprintf("lat_p95_ms rests on %d samples (fewer than %d): read it as the slowest statement class, not as a tail", res.Samples, tailSamples))
	}

	e = nil // the workload's engine is done with; the repeats may have its memory
	for setUpTotal < setUpBudget && len(setUps) < maxSetUps {
		if _, took, err = setUp(w, seed); err != nil {
			return nil, err
		}
		setUps, setUpTotal = append(setUps, took.Seconds()), setUpTotal+took
	}

	values := map[string]float64{
		"setup_s":              median(setUps),
		"qps":                  qps,
		"lat_p50_ms":           median(lats),
		"lat_p95_ms":           percentile(lats, 95),
		"shipped_kb_per_query": float64(shipped) / 1024 / float64(len(lats)),
		"peak_rss_mb":          rss,
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	return res, nil
}

// sortedNames returns the metric names of a result in a stable order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
