package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterSharded(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "h", L("k", "v"))
	b := r.Counter("dup_total", "h", L("k", "v"))
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	c := r.Counter("dup_total", "h", L("k", "w"))
	if a == c {
		t.Fatal("different labels must return a distinct series")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "h", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 56.05; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

// TestWritePrometheusGolden pins the exposition format end to end:
// counters, labeled series, gauges, and cumulative histogram buckets.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("mpq_queries_total", "Queries executed.").Add(3)
	r.Counter("mpq_crypto_values_total", "Values processed.", L("scheme", "det"), L("dir", "enc")).Add(42)
	r.Counter("mpq_crypto_values_total", "Values processed.", L("scheme", "ope"), L("dir", "enc")).Add(7)
	r.Gauge("mpq_cached_plans", "Plans in cache.").Set(2)
	r.GaugeFunc("mpq_authz_version", "Authorization epoch.", func() float64 { return 5 })
	h := r.Histogram("mpq_phase_seconds", "Phase latency.", []float64{0.1, 1}, L("phase", "execute"))
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP mpq_queries_total Queries executed.
# TYPE mpq_queries_total counter
mpq_queries_total 3
# HELP mpq_crypto_values_total Values processed.
# TYPE mpq_crypto_values_total counter
mpq_crypto_values_total{scheme="det",dir="enc"} 42
mpq_crypto_values_total{scheme="ope",dir="enc"} 7
# HELP mpq_cached_plans Plans in cache.
# TYPE mpq_cached_plans gauge
mpq_cached_plans 2
# HELP mpq_authz_version Authorization epoch.
# TYPE mpq_authz_version gauge
mpq_authz_version 5
# HELP mpq_phase_seconds Phase latency.
# TYPE mpq_phase_seconds histogram
mpq_phase_seconds_bucket{phase="execute",le="0.1"} 1
mpq_phase_seconds_bucket{phase="execute",le="1"} 2
mpq_phase_seconds_bucket{phase="execute",le="+Inf"} 3
mpq_phase_seconds_sum{phase="execute"} 2.55
mpq_phase_seconds_count{phase="execute"} 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "h").Add(9)
	r.Gauge("b", "h", L("x", "y")).Set(-4)
	h := r.Histogram("c_seconds", "h", []float64{1})
	h.Observe(0.5)
	snap := r.Snapshot()
	if snap["a_total"] != 9 {
		t.Errorf("a_total = %v", snap["a_total"])
	}
	if snap["b{x=y}"] != -4 {
		t.Errorf("b{x=y} = %v", snap["b{x=y}"])
	}
	if snap["c_seconds_count"] != 1 || snap["c_seconds_sum"] != 0.5 {
		t.Errorf("histogram snapshot = %v / %v", snap["c_seconds_count"], snap["c_seconds_sum"])
	}
}

// TestRegistryConcurrent hammers registration, writes, and scrapes from
// many goroutines; run under -race this proves the registry is safe to
// share between concurrent queries and the /metrics handler.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("conc_total", "h").Inc()
				r.Gauge("conc_gauge", "h").Add(1)
				r.Histogram("conc_hist", "h", []float64{1, 2}).Observe(float64(i % 3))
			}
		}(w)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var b strings.Builder
				_ = r.WritePrometheus(&b)
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("conc_total", "h").Value(); got != 1600 {
		t.Fatalf("conc_total = %d, want 1600", got)
	}
}
