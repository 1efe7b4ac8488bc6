// Command mpqd serves multi-provider queries over HTTP/JSON: a long-lived
// engine (internal/engine) over the TPC-H scenario harness, exposing query
// submission, authorization grant/revoke, and engine statistics.
//
//	mpqd -addr :8399 -scenario UAPenc -sf 0.01 -seed 1
//
// Endpoints:
//
//	POST /query         {"sql": "select ..."} — append ?trace=1 to execute
//	                    traced and receive the annotated plan (operator
//	                    rows/batches/time, transfer edges) in the response
//	POST /query/stream  {"sql": "select ..."} — chunked NDJSON: a headers
//	                    line, one rows line per result batch as the batch
//	                    pipeline produces it, and a final stats line
//	POST /explain       {"sql": "select ..."} — execute traced, return only
//	                    the annotated plan (JSON; ?format=text for the tree)
//	POST /grant         {"relation": "lineitem", "subject": "X", "plain": [...], "enc": [...]}
//	POST /revoke        {"relation": "lineitem", "subject": "X"}
//	GET  /stats         engine counters plus the full metrics snapshot
//	GET  /metrics       Prometheus text exposition
//	GET  /healthz
//
// With -pprof the standard net/http/pprof handlers are mounted under
// /debug/pprof/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mpq/internal/authz"
	"mpq/internal/crypto"
	"mpq/internal/distsim"
	"mpq/internal/engine"
	"mpq/internal/exec"
	"mpq/internal/tpch"
)

const maxBodyBytes = 1 << 20

func main() {
	var (
		addr      = flag.String("addr", ":8399", "listen address")
		scenario  = flag.String("scenario", "UAPenc", "authorization scenario: UA, UAPenc, or UAPmix")
		sf        = flag.Float64("sf", 0.01, "TPC-H scale factor")
		seed      = flag.Int64("seed", 1, "data generator seed")
		batchSize = flag.Int("batch", 0, "pipeline batch size in rows (0 = default)")
		cacheSize = flag.Int("cache", 0, "authorized-plan cache entries (0 = default, negative disables)")
		paillier  = flag.Int("paillier-bits", crypto.DefaultPaillierBits, "Paillier prime size in bits")
		rtt       = flag.Duration("rtt", 0, "simulated inter-subject link RTT (0 disables)")
		mbps      = flag.Float64("mbps", 50, "simulated link bandwidth in MB/s (with -rtt > 0)")
		memBudget = flag.Int64("membudget", 0, "per-query memory budget in bytes for hash-join build sides and group-by tables; a query that needs more fails (0 = unbudgeted)")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
		timeout   = flag.Duration("timeout", 0, "default per-query deadline; ?timeout= overrides per request (0 = none)")
		maxConc   = flag.Int("max-concurrent", 0, "in-flight query cap; overloads get 429/503 instead of queueing unboundedly (0 = unlimited)")
		maxQueue  = flag.Int("max-queue", 0, "admission wait-queue length beyond the in-flight cap (with -max-concurrent)")
		queueWait = flag.Duration("queue-wait", 0, "how long a capped query may wait for a slot before 503 (0 = default)")
		drain     = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout for in-flight queries on SIGTERM/SIGINT")
	)
	flag.Parse()

	sc := tpch.Scenario(*scenario)
	switch sc {
	case tpch.UA, tpch.UAPenc, tpch.UAPmix:
	default:
		fmt.Fprintf(os.Stderr, "mpqd: unknown scenario %q (want UA, UAPenc, or UAPmix)\n", *scenario)
		os.Exit(2)
	}

	log.Printf("mpqd: generating TPC-H data (sf=%g seed=%d scenario=%s)", *sf, *seed, sc)
	cfg := engine.TPCHConfig(sc, *sf, *seed)
	cfg.BatchSize = *batchSize
	cfg.CacheSize = *cacheSize
	cfg.PaillierBits = *paillier
	cfg.MemBudget = *memBudget
	cfg.QueryTimeout = *timeout
	cfg.MaxConcurrent = *maxConc
	cfg.MaxQueue = *maxQueue
	cfg.QueueWait = *queueWait
	if *rtt > 0 {
		cfg.LinkDelay = &distsim.LinkDelay{RTT: *rtt, BytesPerSec: *mbps * 1e6}
	}
	eng, err := engine.New(cfg)
	if err != nil {
		log.Fatalf("mpqd: %v", err)
	}
	eng.Metrics().GoRuntimeCollectors()

	s := &server{eng: eng}
	mux := s.routes(*pprofOn)
	if *pprofOn {
		log.Printf("mpqd: pprof enabled under /debug/pprof/")
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: mux,
		// Bound slow clients; WriteTimeout stays 0 because cold queries at
		// large scale factors legitimately run for seconds.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	// Graceful shutdown: SIGTERM/SIGINT stops accepting connections and
	// drains in-flight queries for up to -drain; queries still running when
	// the drain expires are cancelled through their request contexts.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		log.Printf("mpqd: serving on %s", *addr)
		errCh <- srv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("mpqd: shutting down, draining in-flight queries (up to %s)", *drain)
		shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Printf("mpqd: drain incomplete: %v", err)
			os.Exit(1)
		}
		log.Printf("mpqd: drained cleanly")
	}
}

// statusCanceled is the non-standard 499 nginx popularized for
// client-closed-request: the caller disconnected, so nobody sees the code,
// but logs and metrics distinguish it from server faults.
const statusCanceled = 499

// statusFor maps a query error to its HTTP status via the engine's
// classification: overload sheds with 429, queue timeouts and memory-budget
// refusals with 503, deadlines with 504, client cancellations with 499,
// recovered panics with 500, and everything else stays 422 (the query
// itself was bad).
func statusFor(err error) int {
	switch engine.ClassifyErr(err) {
	case engine.KindOverloaded:
		return http.StatusTooManyRequests
	case engine.KindQueueTimeout, engine.KindMemoryBudget:
		return http.StatusServiceUnavailable
	case engine.KindTimeout:
		return http.StatusGatewayTimeout
	case engine.KindCanceled:
		return statusCanceled
	case engine.KindPanic:
		return http.StatusInternalServerError
	default:
		return http.StatusUnprocessableEntity
	}
}

// queryContext derives the per-request execution context: the request
// context cancels the run the moment the client disconnects, and an
// optional ?timeout= caps it (overriding the engine's default deadline).
// The returned cancel must always be called.
func queryContext(w http.ResponseWriter, r *http.Request) (context.Context, context.CancelFunc, bool) {
	ctx := r.Context()
	if s := r.URL.Query().Get("timeout"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, "bad timeout: want a positive Go duration like 500ms or 10s")
			return nil, nil, false
		}
		ctx, cancel := context.WithTimeout(ctx, d)
		return ctx, cancel, true
	}
	return ctx, func() {}, true
}

type server struct {
	eng *engine.Engine
}

// routes builds the handler mux. pprof handlers are mounted explicitly on
// this mux (importing the package only registers them on
// http.DefaultServeMux, which mpqd does not serve) and stay off unless asked
// for: profiling endpoints expose internals no production listener should.
func (s *server) routes(pprofOn bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /query/stream", s.handleQueryStream)
	mux.HandleFunc("POST /explain", s.handleExplain)
	mux.HandleFunc("POST /grant", s.handleGrant)
	mux.HandleFunc("POST /revoke", s.handleRevoke)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	if pprofOn {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

type queryRequest struct {
	SQL string `json:"sql"`
}

type queryResponse struct {
	Headers      []string   `json:"headers"`
	Rows         [][]string `json:"rows"`
	CacheHit     bool       `json:"cache_hit"`
	AuthzVersion uint64     `json:"authz_version"`
	Executors    []string   `json:"executors"`
	CostUSD      float64    `json:"cost_usd"`
	Transfers    int        `json:"transfers"`
	BytesShipped int64      `json:"bytes_shipped"`
	PlanMs       float64    `json:"plan_ms"`
	ExecMs       float64    `json:"exec_ms"`
	// Trace is the annotated plan of a traced run (?trace=1 only).
	Trace *engine.Explanation `json:"trace,omitempty"`
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.SQL == "" {
		writeError(w, http.StatusBadRequest, "missing sql")
		return
	}
	var (
		resp *engine.Response
		ex   *engine.Explanation
		err  error
	)
	ctx, cancel, ok := queryContext(w, r)
	if !ok {
		return
	}
	defer cancel()
	if r.URL.Query().Get("trace") == "1" {
		resp, ex, err = s.eng.QueryTracedCtx(ctx, req.SQL)
	} else {
		resp, err = s.eng.QueryCtx(ctx, req.SQL)
	}
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	rows := make([][]string, len(resp.Table.Rows))
	for i, row := range resp.Table.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		rows[i] = cells
	}
	executors := make([]string, len(resp.Executors))
	for i, e := range resp.Executors {
		executors[i] = string(e)
	}
	writeJSON(w, http.StatusOK, queryResponse{
		Headers:      resp.Headers,
		Rows:         rows,
		CacheHit:     resp.CacheHit,
		AuthzVersion: resp.AuthzVersion,
		Executors:    executors,
		CostUSD:      resp.Cost.Total(),
		Transfers:    len(resp.Transfers),
		BytesShipped: resp.BytesShipped(),
		PlanMs:       float64(resp.PlanTime.Microseconds()) / 1e3,
		ExecMs:       float64(resp.ExecTime.Microseconds()) / 1e3,
		Trace:        ex,
	})
}

// handleExplain executes the query traced and returns only the annotated
// plan: JSON by default, the rendered tree with ?format=text.
func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.SQL == "" {
		writeError(w, http.StatusBadRequest, "missing sql")
		return
	}
	ctx, cancel, ok := queryContext(w, r)
	if !ok {
		return
	}
	defer cancel()
	ex, err := s.eng.ExplainCtx(ctx, req.SQL)
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, ex.Text())
		return
	}
	writeJSON(w, http.StatusOK, ex)
}

// streamStats is the trailing NDJSON line of a streamed query.
type streamStats struct {
	Rows         int     `json:"rows"`
	CacheHit     bool    `json:"cache_hit"`
	AuthzVersion uint64  `json:"authz_version"`
	Transfers    int     `json:"transfers"`
	BytesShipped int64   `json:"bytes_shipped"`
	PlanMs       float64 `json:"plan_ms"`
	ExecMs       float64 `json:"exec_ms"`
	TTFRMs       float64 `json:"ttfr_ms"`
}

// handleQueryStream serves a query as chunked NDJSON, flushing each result
// batch as the streaming runtime produces it: time-to-first-row for the
// client is decoupled from total execution time.
func (s *server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.SQL == "" {
		writeError(w, http.StatusBadRequest, "missing sql")
		return
	}
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	started := false
	line := func(v any) error {
		if err := enc.Encode(v); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	ctx, cancel, ok := queryContext(w, r)
	if !ok {
		return
	}
	defer cancel()
	resp, err := s.eng.QueryStreamCtx(ctx, req.SQL, func(headers []string, rows [][]exec.Value) error {
		if !started {
			w.Header().Set("Content-Type", "application/x-ndjson")
			started = true
			if err := line(map[string]any{"headers": headers}); err != nil {
				return err
			}
		}
		out := make([][]string, len(rows))
		for i, row := range rows {
			cells := make([]string, len(row))
			for j, v := range row {
				cells[j] = v.String()
			}
			out[i] = cells
		}
		return line(map[string]any{"rows": out})
	})
	if err != nil {
		if !started {
			writeError(w, statusFor(err), err.Error())
			return
		}
		// Mid-stream failure: the status line already went out, so the
		// error travels as the final NDJSON line. A disconnected client
		// (cancellation) gets neither, which is fine — nobody is reading.
		line(map[string]string{"error": err.Error()})
		return
	}
	if !started {
		// No rows: still deliver the header line before the stats.
		w.Header().Set("Content-Type", "application/x-ndjson")
		line(map[string]any{"headers": resp.Headers})
	}
	line(map[string]any{"stats": streamStats{
		Rows:         resp.Rows,
		CacheHit:     resp.CacheHit,
		AuthzVersion: resp.AuthzVersion,
		Transfers:    len(resp.Transfers),
		BytesShipped: resp.BytesShipped(),
		PlanMs:       float64(resp.PlanTime.Microseconds()) / 1e3,
		ExecMs:       float64(resp.ExecTime.Microseconds()) / 1e3,
		TTFRMs:       float64(resp.TimeToFirstRow.Microseconds()) / 1e3,
	}})
}

type grantRequest struct {
	Relation string   `json:"relation"`
	Subject  string   `json:"subject"`
	Plain    []string `json:"plain"`
	Enc      []string `json:"enc"`
}

func (s *server) handleGrant(w http.ResponseWriter, r *http.Request) {
	var req grantRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Relation == "" || req.Subject == "" {
		writeError(w, http.StatusBadRequest, "missing relation or subject")
		return
	}
	v, err := s.eng.Grant(req.Relation, authz.Subject(req.Subject), req.Plain, req.Enc)
	if err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"authz_version": v})
}

type revokeRequest struct {
	Relation string `json:"relation"`
	Subject  string `json:"subject"`
}

func (s *server) handleRevoke(w http.ResponseWriter, r *http.Request) {
	var req revokeRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Relation == "" || req.Subject == "" {
		writeError(w, http.StatusBadRequest, "missing relation or subject")
		return
	}
	v, revoked := s.eng.Revoke(req.Relation, authz.Subject(req.Subject))
	writeJSON(w, http.StatusOK, map[string]any{"authz_version": v, "revoked": revoked})
}

// statsResponse keeps the original engine counter keys at the top level and
// adds the full registry snapshot (every series, labels rendered into the
// key) under "metrics".
type statsResponse struct {
	engine.Stats
	Metrics map[string]float64 `json:"metrics"`
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, statsResponse{
		Stats:   s.eng.Stats(),
		Metrics: s.eng.Metrics().Snapshot(),
	})
}

// handleMetrics serves the Prometheus text exposition of the engine
// registry.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.eng.Metrics().WritePrometheus(w); err != nil {
		log.Printf("mpqd: writing metrics: %v", err)
	}
}

func readJSON(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("mpqd: encoding response: %v", err)
	}
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
