package engine

import (
	"runtime/metrics"
	"testing"

	"mpq/internal/tpch"
)

// The engine benchmarks isolate what plan caching saves: cold re-runs the
// full authorize/extend/assign/key pipeline on every query, cached reuses
// the authorized plan. They are test-code microbenchmarks; the recorded
// end-to-end numbers come from bash bench/run.sh (see bench/README.md).

func benchEngine(b *testing.B, cached bool) {
	cfg := TPCHConfig(tpch.UAPenc, testSF, testSeed)
	cfg.PaillierBits = testPaillierBits
	if !cached {
		cfg.CacheSize = -1
	}
	eng, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sqlText := querySQL(b, 6)
	if cached {
		if _, err := eng.Query(sqlText); err != nil { // warm the plan cache
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(sqlText); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryCold(b *testing.B)   { benchEngine(b, false) }
func BenchmarkQueryCached(b *testing.B) { benchEngine(b, true) }

// BenchmarkQueryConcurrentClients measures cached throughput under
// concurrent load (RunParallel spawns GOMAXPROCS clients).
func BenchmarkQueryConcurrentClients(b *testing.B) {
	cfg := TPCHConfig(tpch.UAPenc, testSF, testSeed)
	cfg.PaillierBits = testPaillierBits
	eng, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sqlText := querySQL(b, 6)
	if _, err := eng.Query(sqlText); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := eng.Query(sqlText); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkHitPath is the plan-cache hit path of bench/run.sh's ua_hot
// workload on one client: under UA at sf 0.01 every plan is cached before
// the timer starts, and one op is one pass over the 22 TPC-H queries, so it
// measures execution (scans, hash joins, group-bys, exchanges), not
// planning. It also reports the CPU seconds the garbage collector spent
// per pass (gc-cpu-s/op, from runtime/metrics). CI bounds its allocs/op and
// B/op.
func BenchmarkHitPath(b *testing.B) {
	eng, err := New(TPCHConfig(tpch.UA, 0.01, testSeed))
	if err != nil {
		b.Fatal(err)
	}
	queries := tpch.Queries()
	pass := func() {
		for _, q := range queries {
			if _, err := eng.Query(q.SQL); err != nil {
				b.Fatalf("Q%d: %v", q.Num, err)
			}
		}
	}
	pass() // prepare and cache every plan
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	before := gc[0].Value.Float64()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.StopTimer()
	metrics.Read(gc)
	b.ReportMetric((gc[0].Value.Float64()-before)/float64(b.N), "gc-cpu-s/op")
}
