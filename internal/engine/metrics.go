package engine

import (
	"time"

	"mpq/internal/crypto"
	"mpq/internal/exec"
	"mpq/internal/obs"
)

// engineMetrics is the engine's registry-backed instrumentation: every
// engine counter lives in an obs.Registry, so the same numbers drive Stats
// (stable JSON) and the /metrics Prometheus exposition without double
// bookkeeping.
// Process-global crypto counters and the plan cache are bridged in as
// CounterFunc/GaugeFunc collectors read at scrape time.
type engineMetrics struct {
	reg *obs.Registry

	queries       *obs.Counter
	hits          *obs.Counter
	misses        *obs.Counter
	errors        *obs.Counter
	invalidations *obs.Counter
	transfers     *obs.Counter
	bytesShipped  *obs.Counter

	// Admission-gate outcomes (mpq_engine_admission_total{outcome}) and the
	// lifecycle failure modes the robustness work made first-class.
	admitted      *obs.Counter
	rejected      *obs.Counter
	queueTimeouts *obs.Counter
	admCanceled   *obs.Counter
	timeouts      *obs.Counter
	cancels       *obs.Counter
	panics        *obs.Counter

	// Per-phase latency of the query lifecycle, in seconds: parse and the
	// cold-preparation stages (plan, authz, assign, keys), then execute and
	// finalize per run: finalize is the time inside the user-side finalizer,
	// execute the rest of the run. Cache hits skip the preparation phases
	// entirely, so their _count series double as cold-preparation counters.
	phaseParse    *obs.Histogram
	phasePlan     *obs.Histogram
	phaseAuthz    *obs.Histogram
	phaseAssign   *obs.Histogram
	phaseKeys     *obs.Histogram
	phaseExecute  *obs.Histogram
	phaseFinalize *obs.Histogram
}

func newEngineMetrics(e *Engine) *engineMetrics {
	r := obs.NewRegistry()
	m := &engineMetrics{reg: r}

	m.queries = r.Counter("mpq_engine_queries_total",
		"Queries submitted (Query, QueryStreamCtx, and ExplainCtx runs).")
	m.errors = r.Counter("mpq_engine_errors_total",
		"Queries that failed at any lifecycle phase.")
	m.hits = r.Counter("mpq_engine_plan_cache_requests_total",
		"Authorized-plan cache lookups by outcome.", obs.L("result", "hit"))
	m.misses = r.Counter("mpq_engine_plan_cache_requests_total",
		"Authorized-plan cache lookups by outcome.", obs.L("result", "miss"))
	m.invalidations = r.Counter("mpq_engine_plan_cache_flushes_total",
		"Wholesale plan-cache flushes caused by policy mutations.")
	m.transfers = r.Counter("mpq_engine_transfers_total",
		"Inter-subject shipments recorded across all runs.")
	m.bytesShipped = r.Counter("mpq_engine_bytes_shipped_total",
		"Bytes moved between subjects across all runs.")

	const admHelp = "Admission-gate decisions by outcome: admitted (slot granted, possibly after queueing), rejected (cap and queue full), queue_timeout (waited QueueWait without a slot), canceled (caller gave up while queued)."
	m.admitted = r.Counter("mpq_engine_admission_total", admHelp, obs.L("outcome", "admitted"))
	m.rejected = r.Counter("mpq_engine_admission_total", admHelp, obs.L("outcome", "rejected"))
	m.queueTimeouts = r.Counter("mpq_engine_admission_total", admHelp, obs.L("outcome", "queue_timeout"))
	m.admCanceled = r.Counter("mpq_engine_admission_total", admHelp, obs.L("outcome", "canceled"))
	m.timeouts = r.Counter("mpq_engine_deadline_exceeded_total",
		"Queries aborted by their deadline (Config.QueryTimeout or a caller deadline).")
	m.cancels = r.Counter("mpq_engine_canceled_total",
		"Queries aborted by caller cancellation (client disconnect, shutdown).")
	m.panics = r.Counter("mpq_engine_panics_recovered_total",
		"Execution panics caught at a fragment or engine boundary and returned as query errors.")

	r.GaugeFunc("mpq_engine_inflight_queries",
		"Queries currently holding an admission slot (0 when admission control is off).",
		func() float64 {
			if e.adm == nil {
				return 0
			}
			return float64(len(e.adm.slots))
		})
	r.GaugeFunc("mpq_engine_admission_queue_depth",
		"Queries waiting in the admission queue.", func() float64 {
			if e.adm == nil {
				return 0
			}
			return float64(e.adm.queued.Load())
		})

	r.GaugeFunc("mpq_engine_cached_plans",
		"Authorized plans currently cached.", func() float64 {
			return float64(e.cache.len())
		})
	r.GaugeFunc("mpq_engine_authz_version",
		"Current authorization-state version.", func() float64 {
			return float64(e.AuthzVersion())
		})

	const phaseHelp = "Query lifecycle phase latency in seconds."
	phase := func(name string) *obs.Histogram {
		return r.Histogram("mpq_engine_phase_seconds", phaseHelp,
			obs.DurationBuckets, obs.L("phase", name))
	}
	m.phaseParse = phase("parse")
	m.phasePlan = phase("plan")
	m.phaseAuthz = phase("authz")
	m.phaseAssign = phase("assign")
	m.phaseKeys = phase("keys")
	m.phaseExecute = phase("execute")
	m.phaseFinalize = phase("finalize")

	// Crypto operation counters are process-global atomics (every engine in
	// the process shares one crypto bill); bridge them in at scrape time.
	const cryptoHelp = "Values encrypted or decrypted, by scheme and direction."
	cryptoOp := func(scheme, dir string, read func(crypto.Stats) uint64) {
		r.CounterFunc("mpq_crypto_values_total", cryptoHelp, func() float64 {
			return float64(read(crypto.ReadStats()))
		}, obs.L("scheme", scheme), obs.L("dir", dir))
	}
	cryptoOp("det", "encrypt", func(s crypto.Stats) uint64 { return s.DetEncrypts })
	cryptoOp("det", "decrypt", func(s crypto.Stats) uint64 { return s.DetDecrypts })
	cryptoOp("rnd", "encrypt", func(s crypto.Stats) uint64 { return s.RndEncrypts })
	cryptoOp("rnd", "decrypt", func(s crypto.Stats) uint64 { return s.RndDecrypts })
	cryptoOp("ope", "encrypt", func(s crypto.Stats) uint64 { return s.OPEEncrypts })
	cryptoOp("ope", "decrypt", func(s crypto.Stats) uint64 { return s.OPEDecrypts })
	cryptoOp("phe", "encrypt", func(s crypto.Stats) uint64 { return s.PheEncrypts })
	cryptoOp("phe", "decrypt", func(s crypto.Stats) uint64 { return s.PheDecrypts })

	const batchHelp = "Batch/arena crypto calls across schemes, by direction."
	r.CounterFunc("mpq_crypto_batches_total", batchHelp, func() float64 {
		return float64(crypto.ReadStats().EncryptBatches)
	}, obs.L("dir", "encrypt"))
	r.CounterFunc("mpq_crypto_batches_total", batchHelp, func() float64 {
		return float64(crypto.ReadStats().DecryptBatches)
	}, obs.L("dir", "decrypt"))

	r.CounterFunc("mpq_crypto_paillier_keygens_total",
		"Paillier key pairs generated (one per plan key of a homomorphically aggregated attribute).", func() float64 {
			return float64(crypto.ReadStats().PaillierKeygens)
		})

	// Dictionary-encoding counters are process-global exec atomics, bridged
	// like the crypto bill: how many string columns execute on codes, the
	// per-distinct-value crypto multiplier, and the wire bytes dict layouts
	// shipped vs what plain layouts would have cost.
	r.CounterFunc("mpq_exec_dict_columns_built_total",
		"String columns promoted to dictionary encoding.", func() float64 {
			return float64(exec.ReadDictStats().ColumnsBuilt)
		})
	r.CounterFunc("mpq_exec_dict_cells_total",
		"Cells covered by dictionary-encoded columns.", func() float64 {
			return float64(exec.ReadDictStats().Cells)
		})
	r.CounterFunc("mpq_exec_dict_entries_total",
		"Distinct dictionary entries across promoted columns.", func() float64 {
			return float64(exec.ReadDictStats().Entries)
		})
	const dictCryptoHelp = "Dictionary crypto fast path: entries processed once vs cells covered, by direction."
	r.CounterFunc("mpq_exec_dict_crypto_entries_total", dictCryptoHelp, func() float64 {
		return float64(exec.ReadDictStats().EncEntries)
	}, obs.L("dir", "encrypt"))
	r.CounterFunc("mpq_exec_dict_crypto_entries_total", dictCryptoHelp, func() float64 {
		return float64(exec.ReadDictStats().DecEntries)
	}, obs.L("dir", "decrypt"))
	r.CounterFunc("mpq_exec_dict_crypto_cells_total", dictCryptoHelp, func() float64 {
		return float64(exec.ReadDictStats().EncCells)
	}, obs.L("dir", "encrypt"))
	r.CounterFunc("mpq_exec_dict_crypto_cells_total", dictCryptoHelp, func() float64 {
		return float64(exec.ReadDictStats().DecCells)
	}, obs.L("dir", "decrypt"))
	const dictWireHelp = "Bytes shipped for dict-encoded columns, vs what the plain layout would have shipped."
	r.CounterFunc("mpq_exec_dict_wire_bytes_total", dictWireHelp, func() float64 {
		return float64(exec.ReadDictStats().WireDictBytes)
	}, obs.L("layout", "dict"))
	r.CounterFunc("mpq_exec_dict_wire_bytes_total", dictWireHelp, func() float64 {
		return float64(exec.ReadDictStats().WirePlainBytes)
	}, obs.L("layout", "plain"))

	// Ciphertext column cache (exec.ReadEncCacheStats): process-global like
	// the dictionary stats. Bytes fall when a plan holding a fill is collected.
	r.GaugeFunc("mpq_exec_enc_cache_bytes",
		"Bytes of ciphertext held by the ciphertext column caches of live prepared plans.",
		func() float64 { return float64(exec.ReadEncCacheStats().Bytes) })
	const encCacheHelp = "Executions of encrypt-over-scan operators by cache outcome: stream (encrypted, nothing kept), fill (encrypted, output collected for publication), serve (served from the cache, no crypto calls)."
	encCache := func(outcome string, read func(exec.EncCacheStats) uint64) {
		r.CounterFunc("mpq_exec_enc_cache_total", encCacheHelp, func() float64 {
			return float64(read(exec.ReadEncCacheStats()))
		}, obs.L("outcome", outcome))
	}
	encCache("stream", func(s exec.EncCacheStats) uint64 { return s.Stream })
	encCache("fill", func(s exec.EncCacheStats) uint64 { return s.Fill })
	encCache("serve", func(s exec.EncCacheStats) uint64 { return s.Serve })

	r.GaugeFunc("mpq_exec_mem_budget_bytes",
		"Per-query memory budget for hash-join build sides and group-by tables (0 = unbudgeted).",
		func() float64 { return float64(e.cfg.MemBudget) })

	return m
}

// observe records one phase duration.
func (m *engineMetrics) observe(h *obs.Histogram, start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Metrics exposes the engine's metric registry so servers can mount a
// Prometheus endpoint or snapshot it into reports. The registry is created
// with the engine and lives as long as it does.
func (e *Engine) Metrics() *obs.Registry { return e.met.reg }
