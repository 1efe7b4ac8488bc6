package exec

import (
	"context"
	"fmt"
	"math/big"

	"mpq/internal/algebra"
	"mpq/internal/crypto"
	"mpq/internal/obs"
	"mpq/internal/sql"
)

// UDFFunc is a registered user defined function: it receives the argument
// values of one tuple and returns the output value.
type UDFFunc func(args []Value) (Value, error)

// Executor evaluates (extended) query plans over in-memory tables with the
// key material available to one subject. A provider executing over
// encrypted data holds public-only key rings and pre-encrypted predicate
// constants; it never sees plaintext.
type Executor struct {
	Tables map[string]*Table
	Keys   *crypto.KeyStore
	UDFs   map[string]UDFFunc
	// Consts holds predicate literals pre-encrypted by the dispatching
	// subject for conditions evaluated over ciphertexts (Section 6: the
	// condition "will have to be dispatched formulated on encrypted
	// values").
	Consts ConstCache
	// Materialized maps plan nodes to pre-computed relations: when Run
	// reaches such a node it returns the table directly instead of
	// recursing. The distributed simulator uses this to feed a subject the
	// sub-results received from other subjects.
	Materialized map[algebra.Node]*Table
	// Sources maps plan nodes to already-built operators: when Build
	// reaches such a node it splices the operator into the pipeline
	// instead of compiling the subtree. The streaming distributed runtime
	// uses this to feed a fragment the batches arriving from other
	// subjects without materializing them first.
	Sources map[algebra.Node]Operator
	// BatchSize is the number of rows per pipeline batch (0 means
	// DefaultBatchSize).
	BatchSize int
	// Materializing selects the row-at-a-time, whole-table evaluator
	// instead of the batch pipeline: the one reference the equivalence
	// tests check the pipeline and the distributed runtime against. It
	// encrypts and decrypts value by value, never through the ciphertext
	// column cache, and ignores Trace and Ctx.
	Materializing bool
	// CryptoWorkers sizes the intra-batch worker pool of the encrypt and
	// decrypt operators: 0 means GOMAXPROCS, negative disables the pool.
	// Small batches never fan out regardless.
	CryptoWorkers int
	// ValueCrypto forced the pipeline's encrypt/decrypt operators onto the
	// per-value crypto path, which has been removed. The field remains
	// while bench/layers.go assigns it (ROADMAP item 3(a)).
	//
	// Deprecated: nothing reads it.
	ValueCrypto bool
	// Mem, when non-nil, is the per-query memory accountant pipeline
	// breakers (group-by tables, hash-join build sides) reserve live state
	// against. A failed reservation switches the operator to grace-hash
	// spilling through Spill. The accountant is shared — not copied — by
	// Clone, so one budget governs every fragment of a run.
	Mem *MemAccountant
	// Spill creates the on-disk partition runs out-of-core operators write.
	// nil with a budget set is a configuration error surfaced at the first
	// failed reservation.
	Spill SpillFactory
	// Partials marks group-by nodes whose input arrives as pre-aggregated
	// partial rows from a producing fragment (pre-shuffle partial
	// aggregation): Build compiles those group-bys in merge mode instead of
	// raw-row mode. The streaming distributed runtime populates it on the
	// consumer clone; it is per-run state, so Clone starts empty.
	Partials map[*algebra.GroupBy]bool
	// Trace, when non-nil, makes Build wrap every compiled operator in a
	// per-Next accounting shim recording rows, batches, and wall time into
	// one span per plan node. The wrapping decision happens at build time,
	// so a nil Trace leaves the compiled pipeline — and its per-batch cost
	// — completely untouched (enforced by BenchmarkTraceOverhead).
	Trace *obs.Trace
	// Ctx, when non-nil, is the run's cancellation context. Leaf scans and
	// spill read-back loops probe it at batch boundaries, so a cancelled
	// run stops within one batch of work.
	// nil (the default) costs a single pointer comparison per batch.
	Ctx context.Context
	// Faults arms the fault-injection harness: Build wraps every compiled
	// operator in a shim firing the configured errors, panics, and delays
	// at batch boundaries. nil (the default) leaves the pipeline untouched.
	Faults *FaultPoints
	// enc is the ciphertext column cache of the prepared plan this executor
	// serves (see encCache): encrypt operators directly over a base scan
	// keep their output there on the second execution and serve it from the
	// third. NewExecutor creates it and Clone shares it, so it lives and dies
	// with one subject of one prepared network; nil (a literal Executor)
	// always encrypts.
	enc *encCache
}

// ConstCache maps value-comparison conditions to their encrypted literals.
type ConstCache map[*algebra.CmpAV]Value

// NewExecutor returns an executor with empty tables, keys, and udfs.
func NewExecutor() *Executor {
	return &Executor{
		Tables: make(map[string]*Table),
		Keys:   crypto.NewKeyStore(),
		UDFs:   make(map[string]UDFFunc),
		Consts: make(ConstCache),
		enc:    new(encCache),
	}
}

// Clone returns an executor sharing the receiver's durable state — tables
// and key material, which Run never mutates, and the ciphertext column
// cache, which synchronizes itself — with fresh per-execution state
// (dispatched constants, materialized sub-results) and a private copy
// of the UDF registry (the distributed simulator merges network-wide UDFs
// into it per run). Concurrent plan executions each run on their own clone
// of a subject's long-lived executor, so evaluation never races on shared
// maps.
func (e *Executor) Clone() *Executor {
	udfs := make(map[string]UDFFunc, len(e.UDFs))
	for name, fn := range e.UDFs {
		udfs[name] = fn
	}
	return &Executor{
		Tables:        e.Tables,
		Keys:          e.Keys,
		UDFs:          udfs,
		Consts:        make(ConstCache),
		Materialized:  make(map[algebra.Node]*Table),
		BatchSize:     e.BatchSize,
		Materializing: e.Materializing,
		CryptoWorkers: e.CryptoWorkers,
		Mem:           e.Mem,
		Spill:         e.Spill,
		Trace:         e.Trace,
		Ctx:           e.Ctx,
		Faults:        e.Faults,
		enc:           e.enc,
	}
}

// Run evaluates the plan rooted at n and returns the produced relation. The
// default path compiles the plan into the batch pipeline (Build) and drains
// it; with Materializing set it runs the row-at-a-time recursive
// evaluator, the reference the equivalence tests check against.
func (e *Executor) Run(n algebra.Node) (*Table, error) {
	if e.Materializing {
		return e.runRows(n)
	}
	if t, ok := e.Materialized[n]; ok {
		return t, nil
	}
	op, err := e.Build(n)
	if err != nil {
		return nil, err
	}
	return Drain(op)
}

// runRows evaluates the plan by the whole-table recursion: every operator
// materializes its full result before the parent consumes it, and
// predicate references are resolved per row.
func (e *Executor) runRows(n algebra.Node) (*Table, error) {
	if t, ok := e.Materialized[n]; ok {
		return t, nil
	}
	switch x := n.(type) {
	case *algebra.Base:
		return e.runBase(x)
	case *algebra.Project:
		return e.runProject(x)
	case *algebra.Select:
		return e.runSelect(x)
	case *algebra.Product:
		return e.runProduct(x)
	case *algebra.Join:
		return e.runJoin(x)
	case *algebra.GroupBy:
		return e.runGroupBy(x)
	case *algebra.UDF:
		return e.runUDF(x)
	case *algebra.Encrypt:
		return e.runEncrypt(x)
	case *algebra.Decrypt:
		return e.runDecrypt(x)
	}
	return nil, fmt.Errorf("exec: unknown node type %T", n)
}

func (e *Executor) runBase(b *algebra.Base) (*Table, error) {
	t, ok := e.Tables[b.Name]
	if !ok {
		return nil, fmt.Errorf("exec: no table %q", b.Name)
	}
	indices := make([]int, len(b.Attrs))
	for i, a := range b.Attrs {
		ix := t.ColIndex(a)
		if ix < 0 {
			return nil, fmt.Errorf("exec: table %q has no column %s", b.Name, a)
		}
		indices[i] = ix
	}
	return t.Project(indices), nil
}

func (e *Executor) runProject(p *algebra.Project) (*Table, error) {
	in, err := e.runRows(p.Child)
	if err != nil {
		return nil, err
	}
	indices := make([]int, len(p.Attrs))
	for i, a := range p.Attrs {
		ix := in.ColIndex(a)
		if ix < 0 {
			return nil, fmt.Errorf("exec: projection attribute %s not in input", a)
		}
		indices[i] = ix
	}
	return in.Project(indices), nil
}

func (e *Executor) runSelect(s *algebra.Select) (*Table, error) {
	in, err := e.runRows(s.Child)
	if err != nil {
		return nil, err
	}
	resolver := newColResolver(in, s.Child)
	out := NewTable(in.Schema)
	for _, row := range in.Rows {
		ok, err := e.evalPred(s.Pred, row, resolver)
		if err != nil {
			return nil, err
		}
		if ok {
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

func (e *Executor) runProduct(p *algebra.Product) (*Table, error) {
	l, err := e.runRows(p.L)
	if err != nil {
		return nil, err
	}
	r, err := e.runRows(p.R)
	if err != nil {
		return nil, err
	}
	out := NewTable(append(append([]algebra.Attr{}, l.Schema...), r.Schema...))
	for _, lr := range l.Rows {
		for _, rr := range r.Rows {
			out.Rows = append(out.Rows, concatRows(lr, rr))
		}
	}
	return out, nil
}

func concatRows(a, b []Value) []Value {
	row := make([]Value, 0, len(a)+len(b))
	return append(append(row, a...), b...)
}

func (e *Executor) runJoin(j *algebra.Join) (*Table, error) {
	l, err := e.runRows(j.L)
	if err != nil {
		return nil, err
	}
	r, err := e.runRows(j.R)
	if err != nil {
		return nil, err
	}
	outSchema := append(append([]algebra.Attr{}, l.Schema...), r.Schema...)
	out := NewTable(outSchema)

	// Hash join on the first equality pair with one side in each input;
	// residual conjuncts filter the matches.
	var hashL, hashR int = -1, -1
	var residual []algebra.Pred
	conjs := algebra.Conjuncts(j.Cond)
	for _, c := range conjs {
		if aa, ok := c.(*algebra.CmpAA); ok && aa.Op == sql.OpEq && hashL < 0 {
			li, ri := l.ColIndex(aa.L), r.ColIndex(aa.R)
			if li < 0 || ri < 0 {
				li, ri = l.ColIndex(aa.R), r.ColIndex(aa.L)
			}
			if li >= 0 && ri >= 0 {
				hashL, hashR = li, ri
				continue
			}
		}
		residual = append(residual, c)
	}
	resPred := algebra.And(residual...)
	resolver := joinResolver(out, j)

	emit := func(lr, rr []Value) error {
		row := concatRows(lr, rr)
		if resPred != nil {
			ok, err := e.evalPred(resPred, row, resolver)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		out.Rows = append(out.Rows, row)
		return nil
	}

	if hashL >= 0 {
		index := make(map[string][][]Value, r.Len())
		for _, rr := range r.Rows {
			k, err := groupKey(rr[hashR])
			if err != nil {
				return nil, err
			}
			index[k] = append(index[k], rr)
		}
		for _, lr := range l.Rows {
			k, err := groupKey(lr[hashL])
			if err != nil {
				return nil, err
			}
			for _, rr := range index[k] {
				if err := emit(lr, rr); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}

	// Nested loop for non-equality joins.
	full := j.Cond
	for _, lr := range l.Rows {
		for _, rr := range r.Rows {
			row := concatRows(lr, rr)
			ok, err := e.evalPred(full, row, resolver)
			if err != nil {
				return nil, err
			}
			if ok {
				out.Rows = append(out.Rows, row)
			}
		}
	}
	return out, nil
}

func (e *Executor) runUDF(u *algebra.UDF) (*Table, error) {
	in, err := e.runRows(u.Child)
	if err != nil {
		return nil, err
	}
	fn, ok := e.UDFs[u.Name]
	if !ok {
		return nil, fmt.Errorf("exec: udf %q not registered", u.Name)
	}
	argIdx := make([]int, len(u.Args))
	for i, a := range u.Args {
		ix := in.ColIndex(a)
		if ix < 0 {
			return nil, fmt.Errorf("exec: udf argument %s not in input", a)
		}
		argIdx[i] = ix
	}
	outSchema := u.Schema()
	out := NewTable(outSchema)
	for _, row := range in.Rows {
		args := make([]Value, len(argIdx))
		for i, ix := range argIdx {
			if row[ix].IsCipher() {
				return nil, fmt.Errorf("exec: udf %q over encrypted argument %s", u.Name, u.Args[i])
			}
			args[i] = row[ix]
		}
		res, err := fn(args)
		if err != nil {
			return nil, fmt.Errorf("exec: udf %q: %w", u.Name, err)
		}
		outRow := make([]Value, len(outSchema))
		for i, a := range outSchema {
			if a == u.Out {
				outRow[i] = res
			} else {
				outRow[i] = row[in.ColIndex(a)]
			}
		}
		out.Rows = append(out.Rows, outRow)
	}
	return out, nil
}

func (e *Executor) runEncrypt(enc *algebra.Encrypt) (*Table, error) {
	in, err := e.runRows(enc.Child)
	if err != nil {
		return nil, err
	}
	out := NewTable(in.Schema)
	out.Rows = make([][]Value, len(in.Rows))
	for ri, row := range in.Rows {
		out.Rows[ri] = append([]Value{}, row...)
	}
	for _, a := range enc.Attrs {
		scheme := enc.Schemes[a]
		if scheme == "" {
			scheme = algebra.SchemeDeterministic
		}
		keyID := enc.KeyIDs[a]
		ring, err := e.Keys.Get(keyID)
		if err != nil {
			return nil, fmt.Errorf("exec: encrypting %s: %w", a, err)
		}
		for ci, sa := range in.Schema {
			if sa != a {
				continue
			}
			for ri := range out.Rows {
				v := out.Rows[ri][ci]
				if v.IsCipher() {
					return nil, fmt.Errorf("exec: re-encrypting %s", a)
				}
				cv, err := EncryptValue(ring, scheme, v)
				if err != nil {
					return nil, fmt.Errorf("exec: encrypting %s: %w", a, err)
				}
				out.Rows[ri][ci] = cv
			}
		}
	}
	return out, nil
}

// EncryptValue encrypts one plaintext value under the scheme with the key
// ring. Besides the Encrypt plan operator, data authorities use it to
// encrypt relations at rest before outsourcing their storage.
func EncryptValue(ring *crypto.KeyRing, scheme algebra.Scheme, v Value) (Value, error) {
	c := &Cipher{Scheme: scheme, KeyID: ring.ID, Plain: v.Kind}
	switch scheme {
	case algebra.SchemeDeterministic:
		d, err := ring.Det()
		if err != nil {
			return Value{}, err
		}
		pt, err := encodePlain(v)
		if err != nil {
			return Value{}, err
		}
		ct, err := d.Encrypt(pt)
		if err != nil {
			return Value{}, err
		}
		c.Data = ct
	case algebra.SchemeRandom:
		r, err := ring.Rnd()
		if err != nil {
			return Value{}, err
		}
		pt, err := encodePlain(v)
		if err != nil {
			return Value{}, err
		}
		ct, err := r.Encrypt(pt)
		if err != nil {
			return Value{}, err
		}
		c.Data = ct
	case algebra.SchemeOPE:
		o, err := ring.OPE()
		if err != nil {
			return Value{}, err
		}
		enc, err := opeEncode(v)
		if err != nil {
			return Value{}, err
		}
		c.Data = o.Encrypt(enc)
	case algebra.SchemePaillier:
		pk, err := ring.Paillier()
		if err != nil {
			return Value{}, err
		}
		m, err := pheEncode(v)
		if err != nil {
			return Value{}, err
		}
		ct, err := pk.Encrypt(m)
		if err != nil {
			return Value{}, err
		}
		c.Phe = ct
		c.Div = 1
	default:
		return Value{}, fmt.Errorf("exec: unknown scheme %q", scheme)
	}
	return Enc(c), nil
}

func (e *Executor) runDecrypt(dec *algebra.Decrypt) (*Table, error) {
	in, err := e.runRows(dec.Child)
	if err != nil {
		return nil, err
	}
	out := NewTable(in.Schema)
	out.Rows = make([][]Value, len(in.Rows))
	for ri, row := range in.Rows {
		out.Rows[ri] = append([]Value{}, row...)
	}
	for _, a := range dec.Attrs {
		for ci, sa := range in.Schema {
			if sa != a {
				continue
			}
			for ri := range out.Rows {
				v := out.Rows[ri][ci]
				if !v.IsCipher() {
					return nil, fmt.Errorf("exec: decrypting plaintext %s", a)
				}
				pv, err := e.DecryptValue(v.C)
				if err != nil {
					return nil, fmt.Errorf("exec: decrypting %s: %w", a, err)
				}
				out.Rows[ri][ci] = pv
			}
		}
	}
	return out, nil
}

// DecryptValue decrypts one ciphertext with the executor's keys.
func (e *Executor) DecryptValue(c *Cipher) (Value, error) {
	ring, err := e.Keys.Get(c.KeyID)
	if err != nil {
		return Value{}, err
	}
	return decryptCipher(ring, c)
}

// decryptCipher decrypts one ciphertext with an already-resolved key ring
// (the batch pipeline caches ring lookups per operator).
func decryptCipher(ring *crypto.KeyRing, c *Cipher) (Value, error) {
	switch c.Scheme {
	case algebra.SchemeDeterministic:
		d, err := ring.Det()
		if err != nil {
			return Value{}, err
		}
		pt, err := d.Decrypt(c.Data)
		if err != nil {
			return Value{}, err
		}
		return decodePlain(pt)
	case algebra.SchemeRandom:
		r, err := ring.Rnd()
		if err != nil {
			return Value{}, err
		}
		pt, err := r.Decrypt(c.Data)
		if err != nil {
			return Value{}, err
		}
		return decodePlain(pt)
	case algebra.SchemeOPE:
		o, err := ring.OPE()
		if err != nil {
			return Value{}, err
		}
		enc, err := o.Decrypt(c.Data)
		if err != nil {
			return Value{}, err
		}
		return opeDecode(enc, c.Plain)
	case algebra.SchemePaillier:
		pk, err := pheDecrypter(ring)
		if err != nil {
			return Value{}, err
		}
		m, err := pk.Decrypt(c.Phe)
		if err != nil {
			return Value{}, err
		}
		return pheDecode(m, c.Div, c.Plain)
	}
	return Value{}, fmt.Errorf("exec: unknown scheme %q", c.Scheme)
}

// runGroupBy hash-aggregates the input. Grouping keys may be plaintext or
// deterministic/OPE ciphertexts; sums and averages over Paillier
// ciphertexts accumulate homomorphically with the public key.
func (e *Executor) runGroupBy(g *algebra.GroupBy) (*Table, error) {
	in, err := e.runRows(g.Child)
	if err != nil {
		return nil, err
	}
	keyIdx := make([]int, len(g.Keys))
	for i, k := range g.Keys {
		ix := in.ColIndex(k)
		if ix < 0 {
			return nil, fmt.Errorf("exec: group key %s not in input", k)
		}
		keyIdx[i] = ix
	}
	aggIdx := make([]int, len(g.Aggs))
	for i, sp := range g.Aggs {
		if sp.Star {
			aggIdx[i] = -1
			continue
		}
		ix := in.ColIndex(sp.Attr)
		if ix < 0 {
			return nil, fmt.Errorf("exec: aggregate attribute %s not in input", sp.Attr)
		}
		aggIdx[i] = ix
	}

	type group struct {
		keyVals []Value
		accs    []*accumulator
	}
	groups := make(map[string]*group)
	var order []string

	for _, row := range in.Rows {
		hk := ""
		for _, ix := range keyIdx {
			k, err := groupKey(row[ix])
			if err != nil {
				return nil, err
			}
			hk += k + "\x1f"
		}
		grp, ok := groups[hk]
		if !ok {
			grp = &group{keyVals: make([]Value, len(keyIdx)), accs: make([]*accumulator, len(g.Aggs))}
			for i, ix := range keyIdx {
				grp.keyVals[i] = row[ix]
			}
			for i, sp := range g.Aggs {
				grp.accs[i] = newAccumulator(sp.Func)
			}
			groups[hk] = grp
			order = append(order, hk)
		}
		for i, sp := range g.Aggs {
			var v Value
			if !sp.Star {
				v = row[aggIdx[i]]
			}
			if err := grp.accs[i].add(e, sp, v); err != nil {
				return nil, err
			}
		}
	}

	out := NewTable(g.Schema())
	for _, hk := range order {
		grp := groups[hk]
		row := make([]Value, 0, len(grp.keyVals)+len(g.Aggs))
		row = append(row, grp.keyVals...)
		for i := range g.Aggs {
			v, err := grp.accs[i].result()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// accumulator computes one aggregate over a group.
type accumulator struct {
	fn    sql.AggFunc
	count int64
	sum   float64
	min   Value
	max   Value
	phe   *big.Int
	pheC  *Cipher
}

func newAccumulator(fn sql.AggFunc) *accumulator { return &accumulator{fn: fn} }

func (a *accumulator) add(e *Executor, sp algebra.AggSpec, v Value) error {
	a.count++
	switch a.fn {
	case sql.AggCount:
		return nil
	case sql.AggSum, sql.AggAvg:
		if v.IsCipher() {
			if v.C.Scheme != algebra.SchemePaillier {
				return fmt.Errorf("exec: %s over %s ciphertext", a.fn, v.C.Scheme)
			}
			ring, err := e.Keys.Get(v.C.KeyID)
			if err != nil {
				return err
			}
			pk, err := ring.Paillier()
			if err != nil {
				return err
			}
			if a.phe == nil {
				a.phe = v.C.Phe
				a.pheC = v.C
			} else {
				a.phe = pk.Add(a.phe, v.C.Phe)
			}
			return nil
		}
		f, err := v.AsFloat()
		if err != nil {
			return err
		}
		a.sum += f
		return nil
	case sql.AggMin, sql.AggMax:
		if a.count == 1 {
			a.min, a.max = v, v
			return nil
		}
		c, err := compareForSort(v, a.min)
		if err != nil {
			return err
		}
		if c < 0 {
			a.min = v
		}
		c, err = compareForSort(v, a.max)
		if err != nil {
			return err
		}
		if c > 0 {
			a.max = v
		}
		return nil
	}
	return fmt.Errorf("exec: unknown aggregate %q", a.fn)
}

func (a *accumulator) result() (Value, error) {
	switch a.fn {
	case sql.AggCount:
		return Int(a.count), nil
	case sql.AggSum:
		if a.phe != nil {
			return Enc(&Cipher{Scheme: algebra.SchemePaillier, KeyID: a.pheC.KeyID, Phe: a.phe, Div: 1, Plain: a.pheC.Plain}), nil
		}
		return Float(a.sum), nil
	case sql.AggAvg:
		if a.phe != nil {
			return Enc(&Cipher{Scheme: algebra.SchemePaillier, KeyID: a.pheC.KeyID, Phe: a.phe, Div: a.count, Plain: KFloat}), nil
		}
		if a.count == 0 {
			return Null(), nil
		}
		return Float(a.sum / float64(a.count)), nil
	case sql.AggMin:
		return a.min, nil
	case sql.AggMax:
		return a.max, nil
	}
	return Value{}, fmt.Errorf("exec: unknown aggregate %q", a.fn)
}
