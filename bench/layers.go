package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mpq/internal/algebra"
	"mpq/internal/assignment"
	"mpq/internal/authz"
	"mpq/internal/core"
	"mpq/internal/crypto"
	"mpq/internal/distsim"
	"mpq/internal/exec"
	"mpq/internal/planner"
	"mpq/internal/sql"
	"mpq/internal/tpch"
)

// span is one timed call into a layer. Spans of one statement share Query;
// Parent is the ID of the span that caused it (0 for a statement's root).
// Times are nanoseconds since the tracer started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Query   int    `json:"query"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at exit.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, query int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Query: query, Name: name,
		StartNs: time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndNs = time.Since(t.t0).Nanoseconds()
	return time.Duration(s.EndNs - s.StartNs)
}

// The layer spans, named after the module whose public function they time.
// The first four are what a plan-cache hit still pays; the rest is the cold
// preparation a miss adds. exec.interior is the plaintext oracle run, not
// part of the engine's pipeline.
var (
	hitLayers  = []string{"sql.parse", "distsim.execute", "exec.decrypt_table", "exec.finalize"}
	missLayers = []string{"planner.plan", "core.check_access", "core.analyze", "assignment.optimize", "distsim.keys"}
)

// walked is what re-walking one statement through the layers yields.
type walked struct {
	layer map[string]time.Duration
	*prepared
}

// prepared is what the miss layers compute for one statement under one
// authorization state: the walk's counterpart of an engine plan-cache entry.
type prepared struct {
	plan        *planner.Plan
	res         *assignment.Result
	network     *distsim.Network
	keys        *crypto.KeyStore
	consts      exec.ConstCache
	cost        float64 // USD, the assignment's exact cost
	ops         int     // operators of the extended plan
	providerOps int     // those assigned to a cloud provider
}

// rewalk drives the engine's pipeline from outside: the same public
// functions Engine.prepare, Engine.query and Engine.finalize call, in the
// same order, on the same default configuration, with a span around each.
// Like the engine it keeps what preparation produced per statement and drops
// it on every policy write, so a repeated statement pays only the hit
// layers, on a network whose keys have encrypted before. It must be kept in
// step with internal/engine/engine.go by hand until the engine records
// exclusive times itself.
type rewalk struct {
	e       *env
	tr      *tracer
	planner *planner.Planner
	policy  *authz.Policy // this walk's own authorization state
	kinds   exec.AttrKinds
	cache   map[string]*prepared
}

func newRewalk(e *env, tr *tracer) *rewalk {
	return &rewalk{
		e: e, tr: tr,
		planner: planner.New(e.cfg.Catalog),
		policy:  tpch.Policy(e.cfg.Catalog, e.w.scenario),
		kinds:   exec.KindsFromCatalog(e.cfg.Catalog),
		cache:   make(map[string]*prepared),
	}
}

// flush drops the walk's prepared statements, as Engine.FlushCache does.
func (r *rewalk) flush() { r.cache = make(map[string]*prepared) }

// write mirrors a churn step on the walk's own policy.
func (r *rewalk) write(st step) error {
	r.flush()
	switch st.op {
	case opRevoke:
		if !r.policy.Revoke(st.rel, authz.Any) {
			return fmt.Errorf("re-walk revoke %s: no 'any' rule", st.rel)
		}
	case opGrant:
		plain, enc := anyRule(r.e.scenario, st.rel)
		return r.policy.Grant(st.rel, authz.Any, plain, enc)
	}
	return nil
}

// statement walks one statement through the layers and returns the times
// and the user-facing result.
func (r *rewalk) statement(qid int, sqlText string) (*walked, *exec.Table, error) {
	w := &walked{layer: make(map[string]time.Duration)}
	root := r.tr.begin("query", 0, qid)
	defer r.tr.end(root)
	timed := func(name string, fn func() error) error {
		id := r.tr.begin(name, root, qid)
		err := fn()
		w.layer[name] = r.tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	var stmt *sql.SelectStmt
	if err := timed("sql.parse", func() (err error) { stmt, err = sql.Parse(sqlText); return }); err != nil {
		return nil, nil, err
	}
	if w.prepared = r.cache[sqlText]; w.prepared == nil {
		p, err := r.prepare(stmt, timed)
		if err != nil {
			return nil, nil, err
		}
		w.prepared, r.cache[sqlText] = p, p
	}

	var got, dec, final *exec.Table
	ext := w.res.Extended
	if err := timed("distsim.execute", func() (err error) {
		got, _, err = w.network.Clone().ExecuteParallel(ext, w.consts)
		return
	}); err != nil {
		return nil, nil, err
	}
	f := exec.NewExecutor()
	f.Keys = w.keys
	f.CryptoWorkers = r.e.cfg.CryptoWorkers
	f.ValueCrypto = r.e.cfg.ValueCrypto
	if err := timed("exec.decrypt_table", func() (err error) { dec, err = f.DecryptTable(got); return }); err != nil {
		return nil, nil, err
	}
	err := timed("exec.finalize", func() (err error) {
		f.Materialized = map[algebra.Node]*exec.Table{ext.Root: dec}
		userPlan := *w.plan
		userPlan.Root = ext.Root
		final, _, err = f.RunPlan(&userPlan)
		return
	})
	return w, final, err
}

// prepare walks the layers a plan-cache miss adds.
func (r *rewalk) prepare(stmt *sql.SelectStmt, timed func(string, func() error) error) (*prepared, error) {
	cfg := r.e.cfg
	sys := core.NewSystem(r.policy, cfg.Subjects...)
	sys.Types = cfg.Catalog.TypesOf()
	p := &prepared{}
	var an *core.Analysis
	steps := []struct {
		name string
		fn   func() error
	}{
		{"planner.plan", func() (err error) { p.plan, err = r.planner.PlanWith(stmt, planner.PlanOptions{}); return }},
		{"core.check_access", func() error { return sys.CheckUserAccess(cfg.User, p.plan.Root) }},
		{"core.analyze", func() error { an = sys.Analyze(p.plan.Root, nil); return nil }},
		{"assignment.optimize", func() (err error) {
			p.res, err = assignment.Optimize(sys, an, cfg.Model, assignment.Options{})
			return
		}},
		{"distsim.keys", func() (err error) {
			p.network = r.network()
			for s, tables := range cfg.Tables {
				p.network.AddSubject(s, tables)
			}
			if p.keys, err = p.network.DistributeKeys(p.res.Extended, crypto.DefaultPaillierBits); err != nil {
				return
			}
			p.consts, err = exec.PrepareConstants(p.res.Extended.Root, p.keys, r.kinds)
			return
		}},
	}
	for _, s := range steps {
		if err := timed(s.name, s.fn); err != nil {
			return nil, err
		}
	}
	p.cost = p.res.Cost.Total()
	providers := make(map[authz.Subject]bool)
	for _, s := range tpch.Providers() {
		providers[s] = true
	}
	for _, s := range p.res.Extended.Assign {
		p.ops++
		if providers[s] {
			p.providerOps++
		}
	}
	return p, nil
}

// network returns an empty network carrying the engine configuration's
// execution knobs, as Engine.prepare sets them. The benchmark leaves them at
// their defaults; copying them keeps the walk on the engine's configuration
// should engine.TPCHConfig ever choose others.
func (r *rewalk) network() *distsim.Network {
	cfg, nw := r.e.cfg, distsim.NewNetwork()
	nw.Delay = cfg.LinkDelay
	nw.BatchSize = cfg.BatchSize
	nw.Materializing = cfg.Materializing
	nw.CryptoWorkers = cfg.CryptoWorkers
	nw.ValueCrypto = cfg.ValueCrypto
	nw.Workers = cfg.Workers
	nw.MorselRows = cfg.MorselRows
	nw.MemBudget = cfg.MemBudget
	nw.SpillDir = cfg.SpillDir
	nw.PartialShuffle = cfg.PartialShuffle
	nw.AdaptiveBatch = cfg.AdaptiveBatch
	return nw
}

// interior times the plaintext centralized run of the planner's plan: the
// bare operators, with no distribution and no encryption. It is the run the
// oracle takes its answers from.
func (r *rewalk) interior(qid int, sqlText string) (time.Duration, error) {
	plan, err := r.e.oracle.planner.PlanSQL(sqlText)
	if err != nil {
		return 0, err
	}
	id := r.tr.begin("exec.interior", 0, qid)
	_, err = r.e.oracle.exec(plan)
	return r.tr.end(id), err
}

// outDir is where a run leaves its files, relative to the root of the
// checkout it is started from.
var outDir = filepath.Join("bench", "out")

// writeSpans stores the spans of a traced run.
func writeSpans(workload string, spans []span) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, workload+".trace.json"), data, 0o644)
}
