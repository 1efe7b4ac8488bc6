package main

import (
	"fmt"
	"math/big"
	"time"

	"mpq/internal/crypto"
	"mpq/internal/tpch"
)

// perLayer lists the single-layer metrics of the traced run. Times are means
// per statement of the traced script unless the name says otherwise; counts
// are totals over the script, which has a fixed length per workload, so they
// repeat exactly between runs on one seed. README.md says which end-to-end
// metric each should move on which workload.
var perLayer = func() []struct{ name, unit string } {
	defs := []struct{ name, unit string }{
		{"sql.parse_us", "us"},
		{"planner.plan_us", "us"},
		{"core.check_access_us", "us"},
		{"core.analyze_us", "us"},
		{"assignment.optimize_us", "us"},
		{"assignment.cost_usd", "usd"},
		{"assignment.provider_op_share", "ratio"},
		{"distsim.keys_ms", "ms"},
		{"distsim.execute_ms", "ms"},
		{"distsim.transfers", "count"},
		{"distsim.batches", "count"},
		{"distsim.shipped_kb", "KiB"},
		{"distsim.overhead_ratio", "ratio"},
		{"exec.interior_ms", "ms"},
		{"exec.decrypt_table_us", "us"},
		{"exec.finalize_us", "us"},
		{"crypto.det_enc_values", "count"},
		{"crypto.rnd_enc_values", "count"},
		{"crypto.ope_enc_values", "count"},
		{"crypto.phe_enc_values", "count"},
		{"crypto.det_dec_values", "count"},
		{"crypto.rnd_dec_values", "count"},
		{"crypto.ope_dec_values", "count"},
		{"crypto.phe_dec_values", "count"},
		{"crypto.pool_hit_ratio", "ratio"},
		{"crypto.det_enc_ns_per_value", "ns"},
		{"crypto.rnd_enc_ns_per_value", "ns"},
		{"crypto.ope_enc_ns_per_value", "ns"},
		{"crypto.phe_enc_ns_per_value", "ns"},
		{"crypto.phe_dec_ns_per_value", "ns"},
		{"crypto.phe_keygen_ms", "ms"},
		{"crypto.est_busy_s", "s"},
		{"engine.hit_overhead_us", "us"},
		{"engine.cache_hit_ratio", "ratio"},
		{"engine.cache_flushes", "count"},
		{"engine.grant_us", "us"},
		{"engine.revoke_us", "us"},
		{"obs.trace_overhead_ratio", "ratio"},
		{"trace.coverage", "ratio"},
		{"trace.crypto_reconcile", "ratio"},
	}
	for _, q := range tpch.Queries() {
		defs = append(defs, struct{ name, unit string }{queryP50Name(q.Num), "ms"})
	}
	return defs
}()

func queryP50Name(num int) string { return fmt.Sprintf("engine.q%02d_p50_ms", num) }

// coverageBand is where Σ layer spans ÷ Engine.Query wall must land for the
// layer numbers to be trusted as a decomposition of the end-to-end ones.
var coverageBand = [2]float64{0.85, 1.15}

// A traced run repeats its round of passes while the rounds so far have
// taken less than traceRoundBudget, at most maxTraceRounds times, and takes
// every statement's times at their median over the rounds: single statements
// vary by a third from one execution to the next on a small host, and the
// first pass after set-up runs some 10 % slow, both more than tracing or the
// engine's own bookkeeping cost.
const (
	maxTraceRounds   = 3
	traceRoundBudget = 5 * time.Second
)

// traceRound is one walk of the traced script, three ways.
type traceRound struct {
	a, b  []sample  // Engine.Query and Engine.QueryTraced
	walks []*walked // the layers from outside
	c     []sample  // the walks' results, for the oracle
}

// medianOver returns the median over the rounds of a duration that some
// rounds may lack (ok false).
func medianOver(rounds []traceRound, get func(traceRound) (time.Duration, bool)) time.Duration {
	var xs []float64
	for _, rd := range rounds {
		if d, ok := get(rd); ok {
			xs = append(xs, float64(d))
		}
	}
	return time.Duration(median(xs))
}

// runTraced is the --trace 1 run. After set-up it walks one fixed script
// (the workload's first tracePasses passes of client 0) three ways:
//
//	A. through Engine.Query, tracing off, in the cache state the timed phase
//	   sees: per-statement wall, hit or miss, the transfer ledger, and the
//	   deltas of the crypto and engine counters;
//	B. through Engine.QueryTraced, for the cost of the engine's own tracing;
//	C. through the layers' public functions, a span around each (rewalk),
//	   plus the plaintext interior that doubles as the oracle.
//
// A and C are interleaved statement by statement: what the layer spans are
// set against is the engine's wall for the same statement a moment earlier,
// not in another phase of the process. Last, the crypto batch entry points
// are timed on their own, so that values × ns/value can be set against the
// execute spans.
func runTraced(w workload, seed int64) (*result, error) {
	e, _, err := setUp(w, seed)
	if err != nil {
		return nil, err
	}
	var script []step
	for k := 0; k < w.tracePasses; k++ {
		script = append(script, w.pass(seed, 0, k)...)
	}

	tr := &tracer{t0: time.Now()}
	rw := newRewalk(e, tr)
	var (
		rounds          []traceRound
		grants, revokes []float64
		missed          bool
		failures        []string
		v               = make(map[string]float64)
	)
	stats0 := e.eng.Stats()
	for began := time.Now(); len(rounds) == 0 || (len(rounds) < maxTraceRounds && time.Since(began) < traceRoundBudget); {
		var rd traceRound
		first := len(rounds) == 0
		// The crypto counters are process-wide: read them around the engine's
		// call alone, which the walk's own encryptions follow. They are
		// counts: one round has them all.
		before := crypto.ReadStats()
		walk := func(st step) error {
			if st.op != opQuery {
				return rw.write(st)
			}
			if first {
				addCryptoCounts(v, before, crypto.ReadStats())
			}
			wk, table, err := rw.statement(len(rounds)*len(script)+len(rd.walks), st.sql)
			if err != nil {
				return fmt.Errorf("re-walk Q%d: %w", st.query, err)
			}
			rd.walks = append(rd.walks, wk)
			rd.c = append(rd.c, sample{query: st.query, sql: st.sql, table: table})
			before = crypto.ReadStats()
			return nil
		}
		var g, r []float64
		if rd.a, g, r, err = e.enginePass(script, false, walk); err != nil {
			return nil, err
		}
		grants, revokes = append(grants, g...), append(revokes, r...)
		failures = append(failures, e.check(fmt.Sprintf("round %d engine", len(rounds)), rd.a)...)
		failures = append(failures, e.check(fmt.Sprintf("round %d re-walk", len(rounds)), rd.c)...)
		for _, s := range rd.a {
			missed = missed || !s.hit
		}
		// Statements that missed would hit the next time round: drop their
		// plans so every pass meets the cache state the timed phase sees.
		if missed {
			e.eng.FlushCache()
			rw.flush()
		}
		if rd.b, _, _, err = e.enginePass(script, true, nil); err != nil {
			return nil, err
		}
		failures = append(failures, e.check(fmt.Sprintf("round %d engine traced", len(rounds)), rd.b)...)
		if missed {
			e.eng.FlushCache()
		}
		rounds = append(rounds, rd)
	}
	// Engine counters are read after the rounds; every pass moves them alike.
	stats1 := e.eng.Stats()
	passes := float64(2 * len(rounds))

	// The plaintext interior runs in a loop of its own: interleaved, its
	// allocations slow the walk by some 10 %.
	passA := rounds[0].a
	var interiorSum time.Duration
	for i, a := range passA {
		in, err := rw.interior(i, a.sql)
		if err != nil {
			return nil, fmt.Errorf("interior Q%d: %w", a.query, err)
		}
		interiorSum += in
	}
	if err := writeSpans(w.name, tr.spans); err != nil {
		return nil, err
	}

	res := &result{Passes: w.tracePasses, Samples: len(passA), Failures: failures}
	res.Metrics = make(map[string]metric)
	res.Attempted, res.Failed = 3*len(rounds)*len(passA), len(failures)
	res.Correct = res.Failed == 0

	layerSum := make(map[string]time.Duration)
	layerCount := make(map[string]float64)
	var (
		ops, providerOps     int
		covered              time.Duration
		wallA, wallB         time.Duration
		byQuery              = make(map[int][]float64)
		transfers, ledger    int
		shipped              int64
		hitOverheads         []float64
		layerNames           = append(append([]string(nil), hitLayers...), missLayers...)
		statementLayer       = make(map[string]time.Duration, len(layerNames))
		firstWalk, firstPass = rounds[0].walks, rounds[0].a
	)
	for i, a := range firstPass {
		for _, name := range layerNames {
			d := medianOver(rounds, func(rd traceRound) (time.Duration, bool) {
				d, ok := rd.walks[i].layer[name]
				return d, ok
			})
			statementLayer[name] = d
			if _, walked := firstWalk[i].layer[name]; walked {
				layerSum[name] += d
				layerCount[name]++
			}
		}
		wall := medianOver(rounds, func(rd traceRound) (time.Duration, bool) { return rd.a[i].latency, true })
		wallA += wall
		wallB += medianOver(rounds, func(rd traceRound) (time.Duration, bool) { return rd.b[i].latency, true })
		byQuery[a.query] = append(byQuery[a.query], ms(wall))

		for _, name := range hitLayers {
			covered += statementLayer[name]
		}
		if a.hit {
			hitOverheads = append(hitOverheads, us(wall-statementLayer["distsim.execute"]-statementLayer["exec.decrypt_table"]))
		} else {
			for _, name := range missLayers {
				covered += statementLayer[name]
			}
		}
		wk := firstWalk[i]
		v["assignment.cost_usd"] += wk.cost
		ops += wk.ops
		providerOps += wk.providerOps
		transfers += len(a.transfers)
		for _, t := range a.transfers {
			ledger += t.Batches
			shipped += t.Bytes
		}
	}
	layerMean := func(name string) time.Duration {
		if layerCount[name] == 0 {
			return 0
		}
		return layerSum[name] / time.Duration(layerCount[name])
	}
	v["sql.parse_us"] = us(layerMean("sql.parse"))
	v["planner.plan_us"] = us(layerMean("planner.plan"))
	v["core.check_access_us"] = us(layerMean("core.check_access"))
	v["core.analyze_us"] = us(layerMean("core.analyze"))
	v["assignment.optimize_us"] = us(layerMean("assignment.optimize"))
	v["assignment.provider_op_share"] = float64(providerOps) / float64(ops)
	v["distsim.keys_ms"] = ms(layerMean("distsim.keys"))
	v["distsim.execute_ms"] = ms(layerMean("distsim.execute"))
	v["distsim.transfers"] = float64(transfers)
	v["distsim.batches"] = float64(ledger)
	v["distsim.shipped_kb"] = float64(shipped) / 1024
	v["distsim.overhead_ratio"] = layerSum["distsim.execute"].Seconds() / interiorSum.Seconds()
	v["exec.interior_ms"] = ms(interiorSum) / float64(len(passA))
	v["exec.decrypt_table_us"] = us(layerMean("exec.decrypt_table"))
	v["exec.finalize_us"] = us(layerMean("exec.finalize"))
	if enc := v["crypto.phe_enc_values"]; enc > 0 {
		v["crypto.pool_hit_ratio"] /= enc
	}

	hits, misses := stats1.CacheHits-stats0.CacheHits, stats1.CacheMisses-stats0.CacheMisses
	v["engine.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	v["engine.cache_flushes"] = float64(stats1.Invalidations-stats0.Invalidations) / passes
	v["engine.grant_us"] = mean(grants)
	v["engine.revoke_us"] = mean(revokes)
	v["engine.hit_overhead_us"] = median(hitOverheads)
	for num, lats := range byQuery {
		v[queryP50Name(num)] = median(lats)
	}

	v["obs.trace_overhead_ratio"] = wallB.Seconds() / wallA.Seconds()
	v["trace.coverage"] = covered.Seconds() / wallA.Seconds()

	// Last, so the microbenchmark's own encryptions stay out of the deltas.
	if err := cryptoBench(v); err != nil {
		return nil, err
	}
	// Symmetric decryption is not timed apart: it is priced at the scheme's
	// encryption rate, which it matches to within the noise of this estimate.
	for _, s := range []string{"det", "rnd", "ope"} {
		rate := v["crypto."+s+"_enc_ns_per_value"]
		v["crypto.est_busy_s"] += (v["crypto."+s+"_enc_values"] + v["crypto."+s+"_dec_values"]) * rate / 1e9
	}
	v["crypto.est_busy_s"] += v["crypto.phe_enc_values"] * v["crypto.phe_enc_ns_per_value"] / 1e9
	v["crypto.est_busy_s"] += v["crypto.phe_dec_values"] * v["crypto.phe_dec_ns_per_value"] / 1e9
	if over := layerSum["distsim.execute"] - interiorSum; over > 0 {
		v["trace.crypto_reconcile"] = v["crypto.est_busy_s"] / over.Seconds()
	}

	if c := v["trace.coverage"]; c < coverageBand[0] || c > coverageBand[1] {
		res.Notes = append(res.Notes, fmt.Sprintf("unreconciled: trace.coverage %.3f is outside [%.2f, %.2f]: the layer spans do not add up to the engine's wall time", c, coverageBand[0], coverageBand[1]))
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: v[m.name], Unit: m.unit}
	}
	return res, nil
}

// Sizes of the crypto microbenchmark: one column of symmetric values as the
// operators batch them, and a shorter Paillier column because one value
// costs as much as a thousand symmetric ones.
const (
	symBenchValues = 4096
	pheBenchValues = 256
	keygenSamples  = 3
)

// cryptoBench times the batch entry points the encrypt and decrypt operators
// call, at the engine's key size, and stores ns per value into v.
func cryptoBench(v map[string]float64) error {
	var (
		ring    *crypto.KeyRing
		keygens []float64
	)
	for i := 0; i < keygenSamples; i++ {
		t0 := time.Now()
		r, err := crypto.NewKeyRing("bench", crypto.DefaultPaillierBits)
		if err != nil {
			return err
		}
		keygens = append(keygens, ms(time.Since(t0)))
		ring = r
	}
	v["crypto.phe_keygen_ms"] = median(keygens)

	pts := make([][]byte, symBenchValues)
	nums := make([]uint64, symBenchValues)
	for i := range pts {
		nums[i] = crypto.EncodeInt(int64(i) * 7919)
		pts[i] = []byte(fmt.Sprintf("%09d", i))
	}
	perValue := func(n int, fn func() error) (float64, error) {
		t0 := time.Now()
		err := fn()
		return float64(time.Since(t0).Nanoseconds()) / float64(n), err
	}
	det, err := ring.Det()
	if err != nil {
		return err
	}
	rnd, err := ring.Rnd()
	if err != nil {
		return err
	}
	ope, err := ring.OPE()
	if err != nil {
		return err
	}
	if v["crypto.det_enc_ns_per_value"], err = perValue(symBenchValues, func() error { _, err := det.EncryptBatch(pts); return err }); err != nil {
		return err
	}
	if v["crypto.rnd_enc_ns_per_value"], err = perValue(symBenchValues, func() error { _, err := rnd.EncryptBatch(pts); return err }); err != nil {
		return err
	}
	v["crypto.ope_enc_ns_per_value"], _ = perValue(symBenchValues, func() error { ope.EncryptBatch(nums); return nil })

	// The fixed-base table is built once per key, as it is for a cached plan.
	if err := ring.PK.Precompute(); err != nil {
		return err
	}
	msgs := make([]*big.Int, pheBenchValues)
	for i := range msgs {
		msgs[i] = big.NewInt(int64(i) * 104729)
	}
	var cts []*big.Int
	if v["crypto.phe_enc_ns_per_value"], err = perValue(pheBenchValues, func() (err error) { cts, err = ring.PK.EncryptBatch(msgs); return }); err != nil {
		return err
	}
	v["crypto.phe_dec_ns_per_value"], err = perValue(pheBenchValues, func() error {
		for _, ct := range cts {
			if _, err := ring.PK.Decrypt(ct); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// addCryptoCounts adds what the process-wide crypto counters moved by between
// two readings to the crypto.*_values metrics (and pool hits, still a count,
// to crypto.pool_hit_ratio).
func addCryptoCounts(v map[string]float64, before, after crypto.Stats) {
	v["crypto.det_enc_values"] += float64(after.DetEncrypts - before.DetEncrypts)
	v["crypto.rnd_enc_values"] += float64(after.RndEncrypts - before.RndEncrypts)
	v["crypto.ope_enc_values"] += float64(after.OPEEncrypts - before.OPEEncrypts)
	v["crypto.phe_enc_values"] += float64(after.PheEncrypts - before.PheEncrypts)
	v["crypto.det_dec_values"] += float64(after.DetDecrypts - before.DetDecrypts)
	v["crypto.rnd_dec_values"] += float64(after.RndDecrypts - before.RndDecrypts)
	v["crypto.ope_dec_values"] += float64(after.OPEDecrypts - before.OPEDecrypts)
	v["crypto.phe_dec_values"] += float64(after.PheDecrypts - before.PheDecrypts)
	v["crypto.pool_hit_ratio"] += float64(after.PaillierPoolHits - before.PaillierPoolHits)
}
