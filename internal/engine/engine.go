package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"mpq/internal/algebra"
	"mpq/internal/assignment"
	"mpq/internal/authz"
	"mpq/internal/core"
	"mpq/internal/cost"
	"mpq/internal/crypto"
	"mpq/internal/distsim"
	"mpq/internal/exec"
	"mpq/internal/planner"
	"mpq/internal/sql"
)

// Config assembles an Engine: the deployment (catalog, policy, subjects,
// price model), the data placement, and the runtime knobs.
type Config struct {
	// Catalog describes the base relations and their statistics.
	Catalog *algebra.Catalog
	// Policy is the mutable authorization state. The engine owns it after
	// construction: mutate it only through Engine.Grant and Engine.Revoke.
	Policy *authz.Policy
	// User is the querying subject; it must be authorized for every base
	// relation of each submitted query.
	User authz.Subject
	// Subjects are the candidate executors (user, authorities, providers).
	Subjects []authz.Subject
	// Model prices assignments (Section 7). Required.
	Model *cost.Model
	// Tables places each subject's local relations.
	Tables map[authz.Subject]map[string]*exec.Table
	// UDFs are network-wide user defined functions.
	UDFs map[string]exec.UDFFunc
	// StorageRings are pre-established at-rest encryption rings for
	// outsourced relations, handed out instead of fresh rings.
	StorageRings []*crypto.KeyRing
	// PaillierBits is the per-prime size in bits of the homomorphic key
	// pairs generated for query-plan keys (the modulus is twice as wide);
	// 0 means crypto.DefaultPaillierBits.
	PaillierBits int
	// CryptoWorkers sizes the intra-batch crypto worker pool used by the
	// encrypt/decrypt operators and user-side finalization on large
	// batches: 0 means GOMAXPROCS, negative disables the pool.
	CryptoWorkers int
	// ValueCrypto forced the per-value crypto path inside the batch
	// pipeline; that path has been removed, and New rejects true. The
	// field remains while bench/layers.go assigns it (ROADMAP item 3(a)).
	//
	// Deprecated: leave it false.
	ValueCrypto bool
	// LinkDelay, when set, simulates wide-area link latency on every
	// inter-subject transfer (see distsim.LinkDelay).
	LinkDelay *distsim.LinkDelay
	// CacheSize bounds the authorized-plan cache (entries). 0 means the
	// default (256); negative disables caching.
	CacheSize int
	// BatchSize is the number of rows per pipeline batch exchanged between
	// operators and fragment workers (0 means exec.DefaultBatchSize).
	BatchSize int
	// Materializing selected a whole-relation runtime that shipped complete
	// sub-results; it has been removed, with the row-at-a-time evaluator
	// behind it, and New rejects true. The tests check answers against
	// internal/sqlref and ledgers against the extended plan run centrally.
	// The field remains while bench/layers.go assigns it (ROADMAP item
	// 3(a)).
	//
	// Deprecated: leave it false.
	Materializing bool
	// Workers and MorselRows configured morsel parallelism inside a
	// fragment, which has been removed: every fragment runs single-threaded
	// on its own goroutine. New accepts Workers 0 or 1 and MorselRows 0 and
	// rejects anything else.
	//
	// Deprecated: leave both zero.
	Workers, MorselRows int
	// MemBudget is the per-query memory budget in bytes, across all of a
	// run's fragments: it caps hash-join build sides and group-by tables,
	// and a query that needs more fails with exec.ErrMemoryBudget. 0 or
	// negative disables it.
	MemBudget int64
	// SpillDir named the directory of the spill runs, which have been
	// removed: a query over its MemBudget fails instead. The field remains
	// while bench/layers.go assigns it (ROADMAP item 3(a)), and New rejects
	// a non-empty value.
	//
	// Deprecated: leave it empty.
	SpillDir string
	// PartialShuffle switched pre-shuffle partial aggregation on. Every
	// plan now carries it where its producer is authorized
	// (core.MarkPartials), so New ignores the field either way.
	//
	// Deprecated: ignored.
	PartialShuffle bool
	// AdaptiveBatch grew scan windows from a small first batch toward
	// BatchSize; it has been removed, and New rejects true.
	//
	// Deprecated: leave it false.
	AdaptiveBatch bool
	// QueryTimeout is the default deadline of every query: a run exceeding
	// it is cancelled within one batch of work and fails with
	// context.DeadlineExceeded. A caller context that carries its own
	// deadline (mpqd's ?timeout=) overrides it; 0 disables the default.
	QueryTimeout time.Duration
	// MaxConcurrent caps in-flight queries (admission control): queries
	// beyond the cap wait in a bounded queue and overloads are rejected
	// with ErrOverloaded instead of stacking up without bound. 0 disables
	// admission control.
	MaxConcurrent int
	// MaxQueue bounds the admission wait queue (only with MaxConcurrent
	// set). 0 means no queue: the query is rejected the moment the cap is
	// reached.
	MaxQueue int
	// QueueWait bounds how long an admitted-but-capped query waits for an
	// execution slot before failing with ErrQueueTimeout (0 means
	// DefaultQueueWait).
	QueueWait time.Duration
	// Faults arms the fault-injection harness on every prepared network
	// (chaos tests only; see distsim.Faults). Nil in production.
	Faults *distsim.Faults
}

const defaultCacheSize = 256

// Engine is a long-lived query service; all methods are safe for concurrent
// use.
type Engine struct {
	cfg     Config
	planner *planner.Planner
	// sys carries the capability and type configuration; each cold
	// preparation builds a fresh System from it over a policy snapshot.
	sys   *core.System
	kinds exec.AttrKinds

	// mu guards the authorization state: Query admits plans under RLock,
	// Grant/Revoke mutate the policy and flush the cache under Lock.
	mu     sync.RWMutex
	policy *authz.Policy
	cache  *planCache

	// met owns the metrics registry; every engine counter lives there (see
	// metrics.go) so Stats and /metrics read one source of truth.
	met *engineMetrics

	// adm is the admission gate (nil when MaxConcurrent is unset).
	adm *admission
}

// New validates the configuration and starts an engine.
func New(cfg Config) (*Engine, error) {
	switch {
	case cfg.Catalog == nil:
		return nil, fmt.Errorf("engine: config needs a catalog")
	case cfg.Policy == nil:
		return nil, fmt.Errorf("engine: config needs a policy")
	case cfg.Model == nil:
		return nil, fmt.Errorf("engine: config needs a cost model")
	case cfg.User == "":
		return nil, fmt.Errorf("engine: config needs the querying user")
	case len(cfg.Subjects) == 0:
		return nil, fmt.Errorf("engine: config needs candidate subjects")
	}
	if cfg.Workers > 1 || cfg.MorselRows != 0 {
		return nil, fmt.Errorf("engine: morsel parallelism was removed: Workers must be 0 or 1 and MorselRows 0 (got %d and %d)",
			cfg.Workers, cfg.MorselRows)
	}
	if cfg.AdaptiveBatch {
		return nil, fmt.Errorf("engine: adaptive batch sizing was removed: AdaptiveBatch must be false")
	}
	if cfg.Materializing {
		return nil, fmt.Errorf("engine: the materializing runtime was removed: Materializing must be false")
	}
	if cfg.ValueCrypto {
		return nil, fmt.Errorf("engine: the per-value crypto path was removed: ValueCrypto must be false")
	}
	if cfg.SpillDir != "" {
		return nil, fmt.Errorf("engine: spilling was removed: SpillDir must be empty")
	}
	if cfg.PaillierBits == 0 {
		cfg.PaillierBits = crypto.DefaultPaillierBits
	}
	size := cfg.CacheSize
	if size == 0 {
		size = defaultCacheSize
	}
	sys := core.NewSystem(cfg.Policy, cfg.Subjects...)
	sys.Types = cfg.Catalog.TypesOf()
	e := &Engine{
		cfg:     cfg,
		planner: planner.New(cfg.Catalog),
		sys:     sys,
		kinds:   exec.KindsFromCatalog(cfg.Catalog),
		policy:  cfg.Policy,
		cache:   newPlanCache(size),
	}
	e.adm = newAdmission(cfg.MaxConcurrent, cfg.MaxQueue, cfg.QueueWait)
	e.met = newEngineMetrics(e)
	return e, nil
}

// preparedQuery is one cache entry: everything needed to execute a query
// except per-run state, computed under a single authorization version.
type preparedQuery struct {
	version   uint64
	plan      *planner.Plan
	result    *assignment.Result
	network   *distsim.Network // subjects registered, keys distributed
	keys      *crypto.KeyStore // full rings, for user-side finalization
	consts    exec.ConstCache
	executors []authz.Subject // distinct assignees, sorted
}

// Response is the outcome of one query.
type Response struct {
	// Headers and Table are the user-facing result after decryption,
	// ordering, projection, and limit. Table's schema is the root schema
	// projected onto the output columns, also when it has no rows; it is
	// nil for QueryStreamCtx, whose rows went to the callback.
	Headers []string
	Table   *exec.Table
	// CacheHit reports whether the authorized plan came from the cache.
	CacheHit bool
	// AuthzVersion is the authorization-state version the served plan was
	// admitted (and authorized) under.
	AuthzVersion uint64
	// Executors are the distinct subjects assigned operations of the
	// extended plan, sorted.
	Executors []authz.Subject
	// Cost is the exact cost breakdown of the chosen assignment.
	Cost cost.Breakdown
	// Transfers is this run's inter-subject shipment ledger.
	Transfers []distsim.Transfer
	// PlanTime covers admission (fingerprint, cache lookup, and on a miss
	// the full authorize/extend/assign/key pipeline); ExecTime covers
	// distributed execution and user-side finalization.
	PlanTime, ExecTime time.Duration
	// TimeToFirstRow is the time from execution start until the finalizer
	// emitted the first result rows: to QueryStreamCtx's callback, or into
	// Table for the other entry points. It is zero for queries that
	// produced no rows.
	TimeToFirstRow time.Duration
	// Rows counts the result rows delivered (Table.Len() for Query, rows
	// streamed to the callback for QueryStreamCtx).
	Rows int
}

// BytesShipped totals the bytes moved between subjects during this run.
func (r *Response) BytesShipped() int64 {
	var total int64
	for _, t := range r.Transfers {
		total += t.Bytes
	}
	return total
}

// maxOptimisticPrepares bounds how often a cold preparation is retried
// because the authorization state changed mid-flight before Query falls
// back to preparing under the read lock (blocking mutations, guaranteeing
// progress under grant/revoke churn).
const maxOptimisticPrepares = 2

// Query plans, authorizes, and executes one SQL query, reusing a cached
// authorized plan when one exists for the current authorization state.
func (e *Engine) Query(query string) (*Response, error) {
	return e.QueryCtx(nil, query)
}

// QueryCtx is Query under a caller context: cancellation or deadline expiry
// aborts the run within one batch of work (memory released, fragment
// goroutines joined) and the error carries the context's cause. The
// engine's Config.QueryTimeout applies as the default deadline when ctx
// has none; admission control (Config.MaxConcurrent) may reject
// the query with ErrOverloaded or ErrQueueTimeout before any work is done.
func (e *Engine) QueryCtx(ctx context.Context, query string) (*Response, error) {
	resp, _, err := e.run(ctx, query, nil, nil)
	return resp, err
}

// admit returns an authorized plan consistent with the current
// authorization state: a cache hit, or a freshly prepared plan. Cold
// preparation — optimization, extension, and Paillier key generation — is
// expensive, so it runs against a policy snapshot without holding the
// authorization lock; the result is admitted only if the version is
// unchanged. After repeated churn the final attempt prepares under the
// read lock: mutations (and, behind them, other admissions) wait for that
// one preparation, a deliberate trade — a bounded serving stall, reachable
// only when several policy mutations each overlap a full preparation of
// the same query — for guaranteed progress where unbounded optimistic
// retry could starve cold queries forever. Either way a served plan is
// always authorized under exactly the version it reports.
func (e *Engine) admit(stmt *sql.SelectStmt, fp string) (*preparedQuery, bool, error) {
	for attempt := 0; ; attempt++ {
		e.mu.RLock()
		version := e.policy.Version()
		if pq := e.cache.get(fp, version); pq != nil {
			e.mu.RUnlock()
			return pq, true, nil
		}
		if attempt >= maxOptimisticPrepares {
			pq, err := e.prepare(stmt, version, e.policy)
			if err == nil {
				e.cache.put(fp, pq)
			}
			e.mu.RUnlock()
			return pq, false, err
		}
		snap := e.policy.Clone()
		e.mu.RUnlock()

		pq, err := e.prepare(stmt, version, snap)

		e.mu.RLock()
		current := e.policy.Version()
		if current == version {
			if err == nil {
				e.cache.put(fp, pq)
			}
			e.mu.RUnlock()
			return pq, false, err
		}
		e.mu.RUnlock()
		// The authorization state changed while preparing: the plan (or
		// error) reflects a stale policy. Discard and retry.
	}
}

// prepare runs the full paper pipeline for one parsed statement against pol
// (a consistent snapshot of — or, under the read lock, the live —
// authorization state at the given version).
func (e *Engine) prepare(stmt *sql.SelectStmt, version uint64, pol authz.Viewer) (*preparedQuery, error) {
	sys := core.NewSystem(pol, e.cfg.Subjects...)
	sys.Caps = e.sys.Caps
	sys.Types = e.sys.Types
	planStart := time.Now()
	plan, err := e.planner.Plan(stmt)
	if err != nil {
		return nil, err
	}
	e.met.observe(e.met.phasePlan, planStart)
	authzStart := time.Now()
	if err := sys.CheckUserAccess(e.cfg.User, plan.Root); err != nil {
		return nil, err
	}
	e.met.observe(e.met.phaseAuthz, authzStart)
	assignStart := time.Now()
	an := sys.Analyze(plan.Root, nil)
	res, err := assignment.Optimize(sys, an, e.cfg.Model, assignment.Options{})
	if err != nil {
		return nil, err
	}
	e.met.observe(e.met.phaseAssign, assignStart)

	nw := distsim.NewNetwork()
	nw.Delay = e.cfg.LinkDelay
	nw.BatchSize = e.cfg.BatchSize
	nw.CryptoWorkers = e.cfg.CryptoWorkers
	nw.MemBudget = e.cfg.MemBudget
	nw.Faults = e.cfg.Faults
	for name, fn := range e.cfg.UDFs {
		nw.UDFs[name] = fn
	}
	for _, ring := range e.cfg.StorageRings {
		nw.AddStorageRing(ring)
	}
	for s, tables := range e.cfg.Tables {
		nw.AddSubject(s, tables)
	}
	keysStart := time.Now()
	full, err := nw.DistributeKeys(res.Extended, e.cfg.PaillierBits)
	if err != nil {
		return nil, err
	}
	consts, err := exec.PrepareConstants(res.Extended.Root, full, e.kinds)
	if err != nil {
		return nil, err
	}
	e.met.observe(e.met.phaseKeys, keysStart)

	seen := make(map[authz.Subject]struct{})
	for _, s := range res.Extended.Assign {
		seen[s] = struct{}{}
	}
	executors := make([]authz.Subject, 0, len(seen))
	for s := range seen {
		executors = append(executors, s)
	}
	sort.Slice(executors, func(i, j int) bool { return executors[i] < executors[j] })

	return &preparedQuery{
		version:   version,
		plan:      plan,
		result:    res,
		network:   nw,
		keys:      full,
		consts:    consts,
		executors: executors,
	}, nil
}

// Grant adds the authorization [plain, enc]→subject on rel, invalidating
// every cached plan. It returns the new authorization-state version.
func (e *Engine) Grant(rel string, subject authz.Subject, plain, enc []string) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.policy.Grant(rel, subject, plain, enc); err != nil {
		return e.policy.Version(), err
	}
	e.cache.flush()
	e.met.invalidations.Inc()
	return e.policy.Version(), nil
}

// Revoke removes subject's authorization on rel, invalidating every cached
// plan when one was present. It returns the new authorization-state version
// and whether an authorization was removed.
func (e *Engine) Revoke(rel string, subject authz.Subject) (uint64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	revoked := e.policy.Revoke(rel, subject)
	if revoked {
		e.cache.flush()
		e.met.invalidations.Inc()
	}
	return e.policy.Version(), revoked
}

// AuthzVersion returns the current authorization-state version.
func (e *Engine) AuthzVersion() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.policy.Version()
}

// FlushCache drops every cached plan (authorization state is unchanged).
func (e *Engine) FlushCache() { e.cache.flush() }

// Stats is a snapshot of the engine counters.
type Stats struct {
	Queries       uint64 `json:"queries"`
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	Errors        uint64 `json:"errors"`
	Invalidations uint64 `json:"invalidations"`
	Transfers     uint64 `json:"transfers"`
	BytesShipped  uint64 `json:"bytes_shipped"`
	CachedPlans   int    `json:"cached_plans"`
	AuthzVersion  uint64 `json:"authz_version"`
}

// Stats returns a snapshot of the engine counters: a read-through view over
// the same registry counters /metrics exposes.
func (e *Engine) Stats() Stats {
	return Stats{
		Queries:       e.met.queries.Value(),
		CacheHits:     e.met.hits.Value(),
		CacheMisses:   e.met.misses.Value(),
		Errors:        e.met.errors.Value(),
		Invalidations: e.met.invalidations.Value(),
		Transfers:     e.met.transfers.Value(),
		BytesShipped:  e.met.bytesShipped.Value(),
		CachedPlans:   e.cache.len(),
		AuthzVersion:  e.AuthzVersion(),
	}
}
