package exec

import (
	"fmt"

	"mpq/internal/algebra"
	"mpq/internal/crypto"
	"mpq/internal/sql"
)

// Build compiles the plan rooted at n into a batch pipeline. Everything
// that the legacy evaluator resolved per row — column indexes, predicate
// constant lookups, projection maps, UDF registrations, encryption key
// rings — is resolved here, once, so Next calls touch only slices and
// closures. Nodes present in Sources splice in an already-built operator
// (the streaming runtime's cross-subject exchanges); nodes present in
// Materialized scan the pre-computed relation.
//
// With a Trace attached, every compiled operator is wrapped in a span
// recording rows, batches, and wall time per Next. With active FaultPoints,
// every compiled operator is additionally wrapped in the injection shim.
// Spliced subtrees (Sources exchanges, Materialized sub-results) are never
// wrapped: the producing fragment already accounts those rows, and wrapping
// the splice would double-count them under the same span.
func (e *Executor) Build(n algebra.Node) (Operator, error) {
	if e.Trace == nil && !e.Faults.active() {
		return e.buildNode(n)
	}
	if op, ok := e.Sources[n]; ok {
		return op, nil
	}
	_, materialized := e.Materialized[n]
	op, err := e.buildNode(n)
	if err != nil || materialized {
		return op, err
	}
	return e.instrument(op, n, n.Op(), n.Op()), nil
}

// instrument wraps a compiled operator in the span registered under ref
// (rendered as name) when the executor carries a Trace, and in the fault
// shim of the named fault point when it carries active FaultPoints. Build
// uses it for every plan node it compiles, and the producer-side shuffle
// operators for the consumer work they take over.
func (e *Executor) instrument(op Operator, ref any, name, point string) Operator {
	if e.Trace != nil {
		sp := e.Trace.Span(ref, name, "")
		// A cached encrypt marks its span when it serves.
		if c, ok := op.(*cachedEncryptOp); ok {
			c.sp = sp
		}
		op = &traceOp{inner: op, sp: sp}
	}
	if e.Faults.active() {
		spec, armed := e.Faults.specFor(point)
		if armed || e.Faults.Hook != nil {
			op = &faultOp{inner: op, fp: e.Faults, spec: spec, armed: armed, where: point}
		}
	}
	return op
}

// buildNode is the untraced compilation dispatch behind Build.
func (e *Executor) buildNode(n algebra.Node) (Operator, error) {
	if op, ok := e.Sources[n]; ok {
		return op, nil
	}
	if t, ok := e.Materialized[n]; ok {
		s := newColScan(t, nil, e.batchSize())
		s.ctx = e.Ctx
		return s, nil
	}
	if enc, ok := n.(*algebra.Encrypt); ok {
		if t := e.encCacheTable(enc); t != nil {
			return e.buildCachedEncrypt(enc, t)
		}
	}
	return e.compileNode(n)
}

// compileNode compiles n itself into its operator.
func (e *Executor) compileNode(n algebra.Node) (Operator, error) {
	switch x := n.(type) {
	case *algebra.Base:
		return e.buildBase(x)
	case *algebra.Project:
		return e.buildProject(x)
	case *algebra.Select:
		return e.buildSelect(x)
	case *algebra.Product:
		return e.buildProduct(x)
	case *algebra.Join:
		return e.buildJoin(x)
	case *algebra.GroupBy:
		return e.buildGroupBy(x)
	case *algebra.UDF:
		return e.buildUDF(x)
	case *algebra.Encrypt:
		return e.buildEncrypt(x)
	case *algebra.Decrypt:
		return e.buildDecrypt(x)
	}
	return nil, fmt.Errorf("exec: unknown node type %T", n)
}

func (e *Executor) buildBase(b *algebra.Base) (Operator, error) {
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
	if identityProjection(indices, len(t.Schema)) {
		indices = nil
	}
	s := newColScan(t, indices, e.batchSize())
	s.ctx = e.Ctx
	return s, nil
}

func (e *Executor) buildProject(p *algebra.Project) (Operator, error) {
	child, err := e.Build(p.Child)
	if err != nil {
		return nil, err
	}
	in := child.Schema()
	indices := make([]int, len(p.Attrs))
	for i, a := range p.Attrs {
		ix := schemaIndex(in, a)
		if ix < 0 {
			return nil, fmt.Errorf("exec: projection attribute %s not in input", a)
		}
		indices[i] = ix
	}
	if identityProjection(indices, len(in)) {
		return child, nil
	}
	schema := make([]algebra.Attr, len(indices))
	for i, ix := range indices {
		schema[i] = in[ix]
	}
	return &projectOp{child: child, indices: indices, schema: schema}, nil
}

func (e *Executor) buildSelect(s *algebra.Select) (Operator, error) {
	child, err := e.Build(s.Child)
	if err != nil {
		return nil, err
	}
	pred, err := e.compileColPred(s.Pred, resolverFor(child.Schema(), s.Child))
	if err != nil {
		return nil, err
	}
	return &filterOp{child: child, pred: pred}, nil
}

func (e *Executor) buildProduct(p *algebra.Product) (Operator, error) {
	l, err := e.Build(p.L)
	if err != nil {
		return nil, err
	}
	r, err := e.Build(p.R)
	if err != nil {
		return nil, err
	}
	schema := append(append([]algebra.Attr{}, l.Schema()...), r.Schema()...)
	return &productOp{left: l, right: r, schema: schema, batch: e.batchSize()}, nil
}

func (e *Executor) buildJoin(j *algebra.Join) (Operator, error) {
	l, err := e.Build(j.L)
	if err != nil {
		return nil, err
	}
	r, err := e.Build(j.R)
	if err != nil {
		return nil, err
	}
	ls, rs := l.Schema(), r.Schema()
	schema := append(append([]algebra.Attr{}, ls...), rs...)

	// Hash join on the first equality pair with one side in each input;
	// residual conjuncts filter the joined batches, as the nested loop
	// filters its product (same operator choice as the legacy evaluator,
	// decided once at build time).
	hashL, hashR := -1, -1
	var residual []algebra.Pred
	for _, c := range algebra.Conjuncts(j.Cond) {
		if aa, ok := c.(*algebra.CmpAA); ok && aa.Op == sql.OpEq && hashL < 0 {
			li, ri := schemaIndex(ls, aa.L), schemaIndex(rs, aa.R)
			if li < 0 || ri < 0 {
				li, ri = schemaIndex(ls, aa.R), schemaIndex(rs, aa.L)
			}
			if li >= 0 && ri >= 0 {
				hashL, hashR = li, ri
				continue
			}
		}
		residual = append(residual, c)
	}

	if hashL < 0 {
		// Nested loop for non-equality joins: stream the product, filter
		// by the full condition.
		full, err := e.compileColPred(j.Cond, plainResolver(schema))
		if err != nil {
			return nil, err
		}
		prod := &productOp{left: l, right: r, schema: schema, batch: e.batchSize()}
		return &filterOp{child: prod, pred: full}, nil
	}

	var out Operator = &hashJoinOp{
		left: l, right: r, schema: schema,
		hashL: hashL, hashR: hashR,
		batch:     e.batchSize(),
		leftWidth: len(ls),
		mem:       e.Mem, node: j,
	}
	if rp := algebra.And(residual...); rp != nil {
		pred, err := e.compileColPred(rp, plainResolver(schema))
		if err != nil {
			return nil, err
		}
		out = &filterOp{child: out, pred: pred}
	}
	return out, nil
}

func (e *Executor) buildGroupBy(g *algebra.GroupBy) (Operator, error) {
	// Consumer side of a partial-aggregated shuffle edge: the input rows are
	// ShufflePartialSchema partials (keys leading, then one (count, payload)
	// column pair per aggregate), merged instead of folded.
	if e.Partials[g] {
		child, err := e.Build(g.Child)
		if err != nil {
			return nil, err
		}
		keyIdx := make([]int, len(g.Keys))
		for i := range keyIdx {
			keyIdx[i] = i
		}
		aggIdx := make([]int, len(g.Aggs))
		for i := range aggIdx {
			aggIdx[i] = len(g.Keys) + 2*i + 1
		}
		return &groupByOp{
			child: child, e: e, node: g, schema: g.Schema(),
			keyIdx: keyIdx, aggIdx: aggIdx, specs: g.Aggs,
			batch: e.batchSize(), ring: e.ringCache(),
			partialIn: true,
		}, nil
	}
	child, err := e.Build(g.Child)
	if err != nil {
		return nil, err
	}
	in := child.Schema()
	keyIdx := make([]int, len(g.Keys))
	for i, k := range g.Keys {
		ix := schemaIndex(in, k)
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
		ix := schemaIndex(in, sp.Attr)
		if ix < 0 {
			return nil, fmt.Errorf("exec: aggregate attribute %s not in input", sp.Attr)
		}
		aggIdx[i] = ix
	}
	return &groupByOp{
		child: child, e: e, node: g, schema: g.Schema(),
		keyIdx: keyIdx, aggIdx: aggIdx, specs: g.Aggs,
		batch: e.batchSize(), ring: e.ringCache(),
	}, nil
}

func (e *Executor) buildUDF(u *algebra.UDF) (Operator, error) {
	child, err := e.Build(u.Child)
	if err != nil {
		return nil, err
	}
	fn, ok := e.UDFs[u.Name]
	if !ok {
		return nil, fmt.Errorf("exec: udf %q not registered", u.Name)
	}
	in := child.Schema()
	argIdx := make([]int, len(u.Args))
	for i, a := range u.Args {
		ix := schemaIndex(in, a)
		if ix < 0 {
			return nil, fmt.Errorf("exec: udf argument %s not in input", a)
		}
		argIdx[i] = ix
	}
	outSchema := u.Schema()
	// srcIdx maps each output position to its input column, or -1 for the
	// UDF result — the per-row ColIndex calls of the legacy path, hoisted.
	srcIdx := make([]int, len(outSchema))
	for i, a := range outSchema {
		if a == u.Out {
			srcIdx[i] = -1
			continue
		}
		srcIdx[i] = schemaIndex(in, a)
	}
	return &udfOp{
		child: child, node: u, fn: fn,
		argIdx: argIdx, srcIdx: srcIdx, schema: outSchema,
	}, nil
}

func (e *Executor) buildEncrypt(enc *algebra.Encrypt) (Operator, error) {
	child, err := e.Build(enc.Child)
	if err != nil {
		return nil, err
	}
	cols, err := e.encCols(enc, child.Schema())
	if err != nil {
		return nil, err
	}
	return &encryptOp{child: child, e: e, cols: cols}, nil
}

// encCols resolves an encrypt node against its input schema: per attribute
// the scheme, the key ring, and the schema positions to rewrite.
func (e *Executor) encCols(enc *algebra.Encrypt, in []algebra.Attr) ([]encCol, error) {
	cols := make([]encCol, 0, len(enc.Attrs))
	for _, a := range enc.Attrs {
		scheme := enc.Schemes[a]
		if scheme == "" {
			scheme = algebra.SchemeDeterministic
		}
		ring, err := e.Keys.Get(enc.KeyIDs[a])
		if err != nil {
			return nil, fmt.Errorf("exec: encrypting %s: %w", a, err)
		}
		if scheme == algebra.SchemePaillier {
			if _, err := ring.Paillier(); err != nil {
				return nil, fmt.Errorf("exec: encrypting %s: %w", a, err)
			}
		}
		var idx []int
		for ci, sa := range in {
			if sa == a {
				idx = append(idx, ci)
			}
		}
		cols = append(cols, encCol{attr: a, scheme: scheme, ring: ring, idx: idx})
	}
	return cols, nil
}

// encCacheTable returns the table enc's operator would read through the
// ciphertext column cache: the child must be a bare scan of one of this
// executor's base tables (not a spliced exchange or sub-result). nil means
// compile uncached.
func (e *Executor) encCacheTable(enc *algebra.Encrypt) *Table {
	b, ok := enc.Child.(*algebra.Base)
	if !ok || e.enc == nil {
		return nil
	}
	if _, ok := e.Sources[b]; ok {
		return nil
	}
	if _, ok := e.Materialized[b]; ok {
		return nil
	}
	return e.Tables[b.Name]
}

// buildCachedEncrypt compiles an encrypt-over-scan node behind the
// ciphertext column cache. The streaming operator is compiled exactly as it
// would be uncached (so every build-time check still runs); the bare scan
// is compiled beside it only when there is a published fill to serve, so a
// streaming run builds — and traces — exactly the operators it always did.
func (e *Executor) buildCachedEncrypt(enc *algebra.Encrypt, t *Table) (Operator, error) {
	stream, err := e.compileNode(enc)
	if err != nil {
		return nil, err
	}
	cols, err := e.encCols(enc, stream.Schema())
	if err != nil {
		return nil, err
	}
	op := &cachedEncryptOp{cache: e.enc, node: enc, t: t, stream: stream}
	for _, c := range cols {
		op.rings = append(op.rings, c.ring)
		op.encIdx = append(op.encIdx, c.idx...)
		if c.scheme == algebra.SchemePaillier {
			pk, err := c.ring.Paillier()
			if err != nil {
				return nil, err
			}
			op.phe = append(op.phe, pk)
		}
	}
	if e.enc.published(enc) {
		if op.scan, err = e.Build(enc.Child); err != nil {
			return nil, err
		}
	}
	return op, nil
}

func (e *Executor) buildDecrypt(dec *algebra.Decrypt) (Operator, error) {
	child, err := e.Build(dec.Child)
	if err != nil {
		return nil, err
	}
	in := child.Schema()
	cols := make([]decCol, 0, len(dec.Attrs))
	for _, a := range dec.Attrs {
		var idx []int
		for ci, sa := range in {
			if sa == a {
				idx = append(idx, ci)
			}
		}
		cols = append(cols, decCol{attr: a, idx: idx})
	}
	return &decryptOp{child: child, e: e, cols: cols, ring: e.ringCache()}, nil
}

// schemaIndex returns the first column index of attribute a in schema, or -1.
func schemaIndex(schema []algebra.Attr, a algebra.Attr) int {
	for i, s := range schema {
		if s == a {
			return i
		}
	}
	return -1
}

// ---------------------------------------------------------------------------
// Predicate compilation

// schemaResolver resolves predicate references against a compiled schema,
// including aggregate references (HAVING avg(P) > 100) mapped to the
// matching aggregate output column of the group-by beneath. It is the
// build-time counterpart of the legacy per-row colResolver.
type schemaResolver struct {
	schema  []algebra.Attr
	aggCols map[string]int
}

// resolverFor builds a resolver for rows of the given schema produced by
// source (unwrapping encryption/decryption to find a group-by beneath).
func resolverFor(schema []algebra.Attr, source algebra.Node) *schemaResolver {
	r := &schemaResolver{schema: schema, aggCols: make(map[string]int)}
	n := source
	for {
		switch x := n.(type) {
		case *algebra.Encrypt:
			n = x.Child
			continue
		case *algebra.Decrypt:
			n = x.Child
			continue
		case *algebra.GroupBy:
			for j, sp := range x.Aggs {
				k := aggKey(sp.Func, sp.Attr, sp.Star)
				if _, dup := r.aggCols[k]; !dup {
					r.aggCols[k] = len(x.Keys) + j
				}
			}
		}
		break
	}
	return r
}

// plainResolver builds a resolver with no aggregate columns (join
// conditions cannot reference aggregates).
func plainResolver(schema []algebra.Attr) *schemaResolver {
	return &schemaResolver{schema: schema, aggCols: map[string]int{}}
}

func (r *schemaResolver) colFor(a algebra.Attr, agg sql.AggFunc) (int, error) {
	if agg != sql.AggNone {
		if ix, ok := r.aggCols[aggKey(agg, a, algebra.IsSynthetic(a))]; ok {
			return ix, nil
		}
	}
	if ix := schemaIndex(r.schema, a); ix >= 0 {
		return ix, nil
	}
	return -1, fmt.Errorf("exec: attribute %s not in row", a)
}

// compileCellAV compiles the cell-level core of an attribute-vs-literal
// comparison: the encrypted-constant lookup and literal are resolved once,
// and the returned evaluator decides one materialized cell. The columnar
// compiler uses it as the fallback for generic-layout columns.
func (e *Executor) compileCellAV(c *algebra.CmpAV) cellFn {
	konst, hasKonst := e.Consts[c]
	rhs := litValue(c.V)
	op := c.Op
	return func(v Value) (bool, error) {
		if v.IsCipher() {
			if !hasKonst {
				return false, fmt.Errorf("exec: no encrypted constant for condition %s (not dispatched?)", c)
			}
			if !konst.IsCipher() {
				return false, fmt.Errorf("exec: constant for %s is not encrypted", c)
			}
			switch v.C.Scheme {
			case algebra.SchemeDeterministic:
				if op != sql.OpEq && op != sql.OpNeq {
					return false, fmt.Errorf("exec: %s over deterministic ciphertext", op)
				}
				eq := crypto.Equal(v.C.Data, konst.C.Data)
				if op == sql.OpNeq {
					return !eq, nil
				}
				return eq, nil
			case algebra.SchemeOPE:
				return opHolds(op, crypto.CompareOPE(v.C.Data, konst.C.Data)), nil
			default:
				return false, fmt.Errorf("exec: cannot evaluate %s over %s ciphertext", op, v.C.Scheme)
			}
		}
		if op == sql.OpLike {
			if v.Kind != KString || !rhs.IsCipher() && rhs.Kind != KString {
				return false, fmt.Errorf("exec: LIKE over non-string")
			}
			return likeMatch(v.S, rhs.S), nil
		}
		cmp, err := compare(v, rhs)
		if err != nil {
			return false, err
		}
		return opHolds(op, cmp), nil
	}
}

// cellAA is the cell-level core of an attribute-vs-attribute comparison,
// the columnar compiler's fallback for generic-layout columns.
func (e *Executor) cellAA(c *algebra.CmpAA) func(l, rv Value) (bool, error) {
	op := c.Op
	return func(l, rv Value) (bool, error) {
		switch {
		case l.IsCipher() && rv.IsCipher():
			if l.C.Scheme != rv.C.Scheme {
				return false, fmt.Errorf("exec: comparing %s with %s ciphertexts", l.C.Scheme, rv.C.Scheme)
			}
			switch l.C.Scheme {
			case algebra.SchemeDeterministic:
				if op != sql.OpEq && op != sql.OpNeq {
					return false, fmt.Errorf("exec: %s over deterministic ciphertexts", op)
				}
				eq := crypto.Equal(l.C.Data, rv.C.Data)
				if op == sql.OpNeq {
					return !eq, nil
				}
				return eq, nil
			case algebra.SchemeOPE:
				return opHolds(op, crypto.CompareOPE(l.C.Data, rv.C.Data)), nil
			default:
				return false, fmt.Errorf("exec: cannot compare %s ciphertexts", l.C.Scheme)
			}
		case !l.IsCipher() && !rv.IsCipher():
			cmp, err := compare(l, rv)
			if err != nil {
				return false, err
			}
			return opHolds(op, cmp), nil
		default:
			return false, fmt.Errorf("exec: mixed plaintext/ciphertext comparison %s", c)
		}
	}
}
