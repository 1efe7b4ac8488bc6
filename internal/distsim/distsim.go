package distsim

import (
	"maps"
	"sync"
	"time"

	"mpq/internal/algebra"
	"mpq/internal/authz"
	"mpq/internal/core"
	"mpq/internal/crypto"
	"mpq/internal/exec"
	"mpq/internal/obs"
)

// LinkDelay models the wide-area links between subjects: every transfer
// stalls for RTT plus the serialization time of its bytes before the
// consumer proceeds. The zero value (nil pointer on the network) keeps
// links instantaneous. Transfers on independent subtrees overlap each other
// and the producers' computation, exactly as in a real multi-cloud
// deployment.
type LinkDelay struct {
	RTT         time.Duration
	BytesPerSec float64
}

// Transfer records one inter-subject shipment of an intermediate relation:
// one ledger entry per cross-subject plan edge, the relation having moved as
// a stream of row batches whose bytes were accounted per batch.
type Transfer struct {
	From, To authz.Subject
	Rows     int
	Bytes    int64
	Batches  int    // batches the shipment was split into
	Op       string // the operation consuming the shipment
}

// Network is the set of subjects and the transfer ledger of one execution.
// Registration (AddSubject, Subject, DistributeKeys) and execution are safe
// for concurrent use; long-lived services still execute every run on a
// Clone so each run reads its own ledger and trace.
type Network struct {
	mu       sync.Mutex // guards subjects
	subjects map[authz.Subject]*exec.Executor
	UDFs     map[string]exec.UDFFunc
	preRings map[string]*crypto.KeyRing
	// Delay, when set, simulates link latency on every transfer.
	Delay *LinkDelay
	// BatchSize is the pipeline batch size handed to subject executors and
	// the streaming exchanges (0 means exec.DefaultBatchSize).
	BatchSize int
	// CryptoWorkers sizes the intra-batch crypto worker pool of every
	// subject executor (0 = GOMAXPROCS, negative disables).
	CryptoWorkers int
	// Materializing selected a whole-relation runtime that shipped complete
	// sub-results; ValueCrypto forced the per-value crypto path. Both
	// were removed: the tests check the one runtime's answers against
	// internal/sqlref and its ledger against the extended plan run
	// centrally by the batch pipeline. The fields remain while
	// bench/layers.go assigns them (ROADMAP item 3(a)).
	//
	// Deprecated: nothing reads them.
	Materializing, ValueCrypto bool
	// Workers and MorselRows sized the morsel worker pool inside each
	// fragment, which has been removed: every fragment runs single-threaded
	// on its own goroutine.
	//
	// Deprecated: nothing reads them.
	Workers, MorselRows int
	// MemBudget, when positive, is the per-query memory budget: each
	// execution creates one exec.MemAccountant shared by all its fragments.
	// The budget caps hash-join build sides and group-by tables, and a
	// query that needs more fails with exec.ErrMemoryBudget.
	MemBudget int64
	// SpillDir named the directory of the spill runs, which have been
	// removed. The field remains while bench/layers.go assigns it (ROADMAP
	// item 3(a)).
	//
	// Deprecated: nothing reads it.
	SpillDir string
	// PartialShuffle switched pre-shuffle partial aggregation on. It is now
	// decided per plan (core.ExtendedPlan.Partials, marked by
	// assignment.Optimize where the producer is authorized), and the
	// streaming runtime always follows the marks. AdaptiveBatch grew scan
	// windows from a small first batch; it has been removed.
	//
	// Deprecated: nothing reads them.
	PartialShuffle, AdaptiveBatch bool
	// Trace, when set, is handed to every subject executor (operator spans)
	// and receives one obs.Edge per cross-subject transfer, unifying the
	// ledger's byte accounting with the simulated network waits a query
	// actually paid. Set it on the per-run Clone, never on a shared
	// long-lived network.
	Trace *obs.Trace
	// Faults, when set, arms the fault-injection harness: per-edge points
	// fired by exchange producers and per-operator points handed to every
	// fragment executor. Chaos/test only; nil in production.
	Faults *Faults
	// Transfers is the ledger of inter-subject shipments, in completion
	// order. ledgerMu guards appends from concurrent fragment workers;
	// reading the ledger is safe once execution has completed.
	Transfers []Transfer
	ledgerMu  sync.Mutex
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{
		subjects: make(map[authz.Subject]*exec.Executor),
		UDFs:     make(map[string]exec.UDFFunc),
		preRings: make(map[string]*crypto.KeyRing),
	}
}

// AddStorageRing registers a pre-established key ring (at-rest encryption
// of a remotely stored relation): DistributeKeys hands it out instead of
// generating a fresh ring for that key id.
func (nw *Network) AddStorageRing(r *crypto.KeyRing) { nw.preRings[r.ID] = r }

// AddSubject registers a subject with its local tables.
func (nw *Network) AddSubject(s authz.Subject, tables map[string]*exec.Table) *exec.Executor {
	e := exec.NewExecutor()
	for name, t := range tables {
		e.Tables[name] = t
	}
	nw.mu.Lock()
	nw.subjects[s] = e
	nw.mu.Unlock()
	return e
}

// Subject returns the executor of a subject (creating an empty one on
// first use).
func (nw *Network) Subject(s authz.Subject) *exec.Executor {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if e, ok := nw.subjects[s]; ok {
		return e
	}
	e := exec.NewExecutor()
	nw.subjects[s] = e
	return e
}

// Clone returns a network sharing the receiver's subject executors (their
// tables, key material and caches), UDF registry and settings, with its own
// subject map and an empty transfer ledger. A prepared network (subjects
// registered, keys distributed) can be cloned once per run so each run
// reads its own ledger and trace; the per-execution executor state is
// created by ExecuteStreamCtx, which clones each fragment's executor.
func (nw *Network) Clone() *Network {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return &Network{
		subjects:      maps.Clone(nw.subjects),
		UDFs:          nw.UDFs,
		preRings:      nw.preRings,
		Delay:         nw.Delay,
		BatchSize:     nw.BatchSize,
		CryptoWorkers: nw.CryptoWorkers,
		MemBudget:     nw.MemBudget,
		Trace:         nw.Trace,
		Faults:        nw.Faults,
	}
}

// runMem creates the memory accountant of one execution (nil when no budget
// is set). One accountant is shared by every fragment executor of the run,
// so the budget caps the run's total build sides and group tables, not each
// operator's.
func (nw *Network) runMem() *exec.MemAccountant {
	if nw.MemBudget <= 0 {
		return nil
	}
	return exec.NewMemAccountant(nw.MemBudget)
}

// record appends a transfer to the ledger, safely from concurrent workers.
func (nw *Network) record(t Transfer) {
	nw.ledgerMu.Lock()
	nw.Transfers = append(nw.Transfers, t)
	nw.ledgerMu.Unlock()
}

// DistributeKeys generates the key rings of an extended plan and hands each
// subject exactly the material it is entitled to: full rings to the holders
// recorded in the plan's keys (the subjects performing encryptions and
// decryptions) and, for keys of Paillier-encrypted attributes, public-only
// rings to every other participant (enough to accumulate Paillier
// ciphertexts, nothing more). Only those keys get a Paillier key pair; the
// others are symmetric-only. It returns the full rings for the dispatching
// user.
func (nw *Network) DistributeKeys(ext *core.ExtendedPlan, paillierBits int) (*crypto.KeyStore, error) {
	full := crypto.NewKeyStore()
	participants := make(map[authz.Subject]struct{})
	algebra.PostOrder(ext.Root, func(n algebra.Node) {
		participants[ext.Assign.Executor(n)] = struct{}{}
	})
	for _, k := range ext.Keys {
		paillier := ext.NeedsPaillier(k)
		ring, ok := nw.preRings[k.ID]
		if !ok {
			var err error
			if paillier {
				ring, err = crypto.NewKeyRing(k.ID, paillierBits)
			} else {
				ring, err = crypto.NewSymmetricKeyRing(k.ID)
			}
			if err != nil {
				return nil, err
			}
		}
		full.Add(ring)
		holders := make(map[authz.Subject]struct{}, len(k.Holders))
		for _, h := range k.Holders {
			holders[h] = struct{}{}
			nw.Subject(h).Keys.Add(ring)
		}
		if !paillier {
			continue
		}
		for p := range participants {
			if _, isHolder := holders[p]; !isHolder {
				nw.Subject(p).Keys.Add(ring.Public())
			}
		}
	}
	return full, nil
}

// dictLedger tracks, for one edge, which dictionaries have already crossed
// it: a dictionary's content ships once per edge, while every batch ships
// only its 4-byte codes. Each producer goroutine owns one edge and one
// ledger, so no locking.
type dictLedger struct {
	seen map[any]bool // dictionary identities (&dict[0]) already shipped
}

func newDictLedger() *dictLedger { return &dictLedger{seen: make(map[any]bool)} }

// batchBytes measures the encoded size of a columnar batch without
// materializing rows: the streaming runtime accounts every shipped batch
// with it. For the non-dict layouts it accounts each cell as valueBytes
// does; dict-encoded columns instead account codes per batch plus each
// dictionary's content once per edge (dl), which is the point of shipping
// them encoded.
func batchBytes(b *exec.Batch, dl *dictLedger) int64 {
	var total int64
	for ci := range b.Cols {
		c := &b.Cols[ci]
		switch c.Kind {
		case exec.ColInt, exec.ColFloat:
			total += 8 * int64(b.N)
			if c.Nulls != nil {
				for i := 0; i < b.N; i++ {
					if c.IsNull(i) {
						total -= 7 // a NULL cell encodes as 1 byte, not 8
					}
				}
			}
		case exec.ColStr:
			for i, s := range c.Strs {
				if c.IsNull(i) {
					total++
				} else {
					total += int64(len(s))
				}
			}
		case exec.ColCipherBytes:
			for _, d := range c.Bytes {
				total += int64(len(d))
			}
		case exec.ColDict, exec.ColCipherDict:
			total += dictColBytes(c, b.N, dl)
		default:
			for i := range c.Vals {
				total += valueBytes(c.Vals[i])
			}
		}
	}
	return total
}

// dictColBytes accounts one shipped dict-layout column: 4 bytes of code per
// cell, plus the dictionary's content bytes the first time that dictionary
// crosses this edge. The bytes the plain layout would have shipped for the
// same cells are recorded alongside in the process-global dict stats, so
// the wire saving is observable end to end.
func dictColBytes(c *exec.Column, n int, dl *dictLedger) int64 {
	bytes := 4 * int64(n)
	var plain int64
	if c.Kind == exec.ColDict {
		if len(c.Dict) > 0 {
			if id := &c.Dict[0]; !dl.seen[id] {
				dl.seen[id] = true
				for _, s := range c.Dict {
					bytes += int64(len(s))
				}
			}
		}
		for i := 0; i < n; i++ {
			if c.IsNull(i) {
				plain++
			} else {
				plain += int64(len(c.Dict[c.Codes[i]]))
			}
		}
	} else {
		if len(c.CipherDict) > 0 {
			if id := &c.CipherDict[0]; !dl.seen[id] {
				dl.seen[id] = true
				for _, d := range c.CipherDict {
					bytes += int64(len(d))
				}
			}
		}
		for i := 0; i < n; i++ {
			if c.IsNull(i) {
				plain++
			} else {
				plain += int64(len(c.CipherDict[c.Codes[i]]))
			}
		}
	}
	exec.AddDictWireBytes(uint64(bytes), uint64(plain))
	return bytes
}

func valueBytes(v exec.Value) int64 {
	switch v.Kind {
	case exec.KInt, exec.KFloat:
		return 8
	case exec.KString:
		return int64(len(v.S))
	case exec.KCipher:
		if v.C.Phe != nil {
			return int64(len(v.C.Phe.Bytes())) + 8
		}
		return int64(len(v.C.Data))
	default:
		return 1
	}
}
