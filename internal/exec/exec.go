package exec

import (
	"context"
	"fmt"

	"mpq/internal/algebra"
	"mpq/internal/crypto"
	"mpq/internal/obs"
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
	// Materialized maps plan nodes to pre-computed relations: when Run or
	// Build reaches such a node it scans the table instead of compiling the
	// subtree. Callers use it to finalize a decrypted root (RunPlan over a
	// result already computed) and to run an extended plan node by node.
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
	// Mem, when non-nil, is the per-query memory accountant: the budget
	// caps hash-join build sides and group-by tables, and a query that
	// needs more fails with ErrMemoryBudget. The accountant is shared — not
	// copied — by Clone, so one budget governs every fragment of a run.
	Mem *MemAccountant
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
	// Ctx, when non-nil, is the run's cancellation context. Leaf scans
	// probe it at batch boundaries, so a cancelled run stops within one
	// batch of work.
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
		CryptoWorkers: e.CryptoWorkers,
		Mem:           e.Mem,
		Trace:         e.Trace,
		Ctx:           e.Ctx,
		Faults:        e.Faults,
		enc:           e.enc,
	}
}

// Run evaluates the plan rooted at n and returns the produced relation: it
// compiles the plan into the batch pipeline (Build) and drains it.
func (e *Executor) Run(n algebra.Node) (*Table, error) {
	if t, ok := e.Materialized[n]; ok {
		return t, nil
	}
	op, err := e.Build(n)
	if err != nil {
		return nil, err
	}
	return Drain(op)
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
