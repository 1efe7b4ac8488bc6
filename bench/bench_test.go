package main

import (
	"fmt"
	"math"
	"reflect"
	"regexp"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/exec"
	"mpq/internal/sql"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {100, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty samples must give 0")
	}
}

// The expected values are statistics.quantiles(xs, n=4) of Python 3.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	xs := []float64{12, 15, 11, 19, 14, 13, 18, 16, 17, 10}
	// quantiles → [11.75, 14.5, 17.25]; median 14.5
	if got, want := quartileSpread(xs), (17.25-11.75)/14.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// n = 3: quantiles([1, 2, 4]) → [1.0, 2.0, 4.0]
	if got, want := quartileSpread([]float64{4, 1, 2}), 3.0/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(n=3) = %v, want %v", got, want)
	}
	if quartileSpread([]float64{7}) != 0 {
		t.Error("a single value has no spread")
	}
}

func TestCanon(t *testing.T) {
	schema := []algebra.Attr{{Rel: "r", Name: "a"}, {Rel: "r", Name: "b"}}
	a, b := exec.NewTable(schema), exec.NewTable(schema)
	a.Rows = [][]exec.Value{{exec.String("x"), exec.Int(3)}, {exec.String("y"), exec.Float(1.004)}}
	b.Rows = [][]exec.Value{{exec.String("y"), exec.Float(1.0)}, {exec.String("x"), exec.Float(3.0)}}
	if canon(a) != canon(b) {
		t.Errorf("row order, int/float and third-decimal noise must not matter:\n%s\nvs\n%s", canon(a), canon(b))
	}
	b.Rows[0][1] = exec.Float(1.02)
	if canon(a) == canon(b) {
		t.Error("a difference in the second decimal must show")
	}
}

func TestAdhocStatementsRepeatPerSeedAndNeverWithinARun(t *testing.T) {
	const passes = 300
	seen := make(map[string]bool)
	for k := -1; k < passes; k++ {
		a, b := adhocPass(7, k), adhocPass(7, k)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("pass %d differs between two generations on one seed", k)
		}
		if len(a) != len(adhocTemplates) {
			t.Fatalf("pass %d has %d statements, want one per template", k, len(a))
		}
		for _, st := range a {
			stmt, err := sql.Parse(st.sql)
			if err != nil {
				t.Fatalf("pass %d Q%d does not parse: %v\n%s", k, st.query, err, st.sql)
			}
			// The engine's plan-cache fingerprint hashes this rendering.
			if fp := stmt.String(); seen[fp] {
				t.Fatalf("pass %d Q%d repeats an earlier statement: %s", k, st.query, fp)
			} else {
				seen[fp] = true
			}
		}
	}
	if reflect.DeepEqual(adhocPass(7, 0), adhocPass(8, 0)) {
		t.Error("another seed must give other statements")
	}
}

// A full set reads each child's counts and result back from its output.
func TestRecordReadsWhatARunPrints(t *testing.T) {
	out := fmt.Sprintf(summaryFormat, "ua_hot", 7, 0, 3, 132) +
		"  qps    1.5000 1/s\nnote: a note\n" +
		`{"correct":true,"attempted":132,"failed":0,"metrics":{"qps":{"value":1.5,"unit":"1/s"}}}` + "\n"
	var rec record
	if err := rec.read(out); err != nil {
		t.Fatal(err)
	}
	if rec.Passes != 3 || rec.Samples != 132 || !rec.Result.Correct || rec.Result.Attempted != 132 || rec.Result.Metrics["qps"].Value != 1.5 {
		t.Errorf("read back %+v", rec)
	}
	if err := rec.read("no summary\n{}\n"); err == nil {
		t.Error("output without a summary line must be refused")
	}
}

func TestChurnCycleShape(t *testing.T) {
	queries := 0
	for _, st := range churnCycle(1) {
		switch st.op {
		case opQuery:
			queries++
		case opRevoke:
			if queries != 0 || st.rel != "orders" {
				t.Errorf("revoke of %s before query %d, want orders before query 0", st.rel, queries)
			}
		case opGrant:
			if queries != churnGrantAt || st.rel != "orders" {
				t.Errorf("grant of %s before query %d, want orders before query %d", st.rel, queries, churnGrantAt)
			}
		}
	}
	if queries != churnCycleLen {
		t.Errorf("cycle has %d queries, want %d", queries, churnCycleLen)
	}
}

// BENCHMARK.json is what the repository is judged by; the code is what
// emits. They must name the same things.
func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	var spec benchmarkFile
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %v in BENCHMARK.json and %v in the code", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || !name.MatchString(w.Name) {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the code", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || !name.MatchString(m.Name) {
			t.Errorf("end-to-end metric %d is %s [%s] in BENCHMARK.json and %s [%s] in the code", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || !name.MatchString(m.Name) {
			t.Errorf("per-layer metric %d is %s [%s] in BENCHMARK.json and %s [%s] in the code", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// One short ua_hot run at a small scale factor, both ways: every metric the
// code declares is emitted, and nothing fails the oracle.
func TestSmokeUAHot(t *testing.T) {
	outDir = t.TempDir()
	w, err := workloadByName("ua_hot")
	if err != nil {
		t.Fatal(err)
	}
	w.sf, w.tracePasses = 0.001, 1

	timed, err := runTimed(w, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if timed.Failed != 0 || !timed.Correct || timed.Attempted != minPasses*22*w.clients {
		t.Errorf("timed run: %d of %d failed (want 0 of %d): %v", timed.Failed, timed.Attempted, minPasses*22*w.clients, timed.Failures)
	}
	for _, m := range endToEnd {
		if got, ok := timed.Metrics[m.name]; !ok || got.Value <= 0 || got.Unit != m.unit {
			t.Errorf("timed run: %s = %+v, want a positive value in %s", m.name, got, m.unit)
		}
	}
	if len(timed.Metrics) != len(endToEnd) {
		t.Errorf("timed run emits %d metrics, want %d", len(timed.Metrics), len(endToEnd))
	}

	traced, err := runTraced(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Failed != 0 || !traced.Correct {
		t.Errorf("traced run: %d of %d failed: %v", traced.Failed, traced.Attempted, traced.Failures)
	}
	for _, m := range perLayer {
		if got, ok := traced.Metrics[m.name]; !ok || got.Unit != m.unit {
			t.Errorf("traced run: %s = %+v, want a value in %s", m.name, got, m.unit)
		}
	}
	if len(traced.Metrics) != len(perLayer) {
		t.Errorf("traced run emits %d metrics, want %d", len(traced.Metrics), len(perLayer))
	}
	for _, n := range []string{"crypto.det_enc_values", "crypto.phe_enc_values", "crypto.rnd_dec_values"} {
		if traced.Metrics[n].Value != 0 {
			t.Errorf("UA encrypts nothing, but %s = %v", n, traced.Metrics[n].Value)
		}
	}
	if traced.Metrics["engine.cache_hit_ratio"].Value != 1 {
		t.Errorf("warmed ua_hot must hit the plan cache every time, got %v", traced.Metrics["engine.cache_hit_ratio"].Value)
	}
}
