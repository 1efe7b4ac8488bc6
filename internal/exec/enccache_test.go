package exec

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"mpq/internal/algebra"
	"mpq/internal/crypto"
	"mpq/internal/obs"
	"mpq/internal/sql"
)

// encFixture is one "prepared plan" for the cache tests: a long-lived
// executor holding table R and the ring of key "kR", and an encrypt node
// directly over R's scan covering every scheme and every cipher layout
// (dictionary det, plain det, OPE, randomized, Paillier).
type encFixture struct {
	e             *Executor
	ring          *crypto.KeyRing
	tbl           *Table
	enc           *algebra.Encrypt
	k, s, d, r, v algebra.Attr
}

const encFixtureRows = 300

func encFixtureRow(i int) []Value {
	return []Value{
		String(fmt.Sprintf("g%d", i%3)), // low cardinality: dictionary column
		String(fmt.Sprintf("s%05d", i)), // all distinct: plain string column
		Int(int64(i * 7 % 101)),
		Int(int64(i)),
		Float(float64(i%50) + 0.25),
	}
}

// encFixtureTable returns a fresh 300-row table R(k, s, d, r, v), with
// mend applied to its rows when not nil.
func encFixtureTable(mend func(rows [][]Value)) *Table {
	tbl := NewTable([]algebra.Attr{algebra.A("R", "k"), algebra.A("R", "s"), algebra.A("R", "d"), algebra.A("R", "r"), algebra.A("R", "v")})
	for i := 0; i < encFixtureRows; i++ {
		tbl.Rows = append(tbl.Rows, encFixtureRow(i))
	}
	if mend != nil {
		mend(tbl.Rows)
	}
	return tbl
}

// newEncFixture builds the fixture over tbl (nil = encFixtureTable(nil)).
// Every fixture uses the key id "kR" with its own ring, exactly as two
// prepared plans encrypting the same attribute do.
func newEncFixture(t testing.TB, tbl *Table) *encFixture {
	t.Helper()
	f := &encFixture{
		k: algebra.A("R", "k"), s: algebra.A("R", "s"), d: algebra.A("R", "d"),
		r: algebra.A("R", "r"), v: algebra.A("R", "v"),
	}
	schema := []algebra.Attr{f.k, f.s, f.d, f.r, f.v}
	if tbl == nil {
		tbl = encFixtureTable(nil)
	}
	ring, err := crypto.NewKeyRing("kR", testPaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	f.ring, f.tbl = ring, tbl
	f.e = NewExecutor()
	f.e.BatchSize = 64
	f.e.Keys.Add(ring)
	f.e.Tables["R"] = tbl
	base := algebra.NewBase("R", "A", schema, float64(tbl.Len()), nil)
	f.enc = algebra.NewEncrypt(base, schema)
	for a, sch := range map[algebra.Attr]algebra.Scheme{
		f.k: algebra.SchemeDeterministic, f.s: algebra.SchemeDeterministic,
		f.d: algebra.SchemeOPE, f.r: algebra.SchemeRandom, f.v: algebra.SchemePaillier,
	} {
		f.enc.Schemes[a] = sch
		f.enc.KeyIDs[a] = "kR"
	}
	return f
}

// run executes n on a fresh clone, as the distributed runtime does per run.
func (f *encFixture) run(t testing.TB, n algebra.Node) *Table {
	t.Helper()
	out, err := f.e.Clone().Run(n)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// requirePlain decrypts an encrypted scan result with the fixture's ring and
// compares it cell for cell with the table.
func (f *encFixture) requirePlain(t testing.TB, label string, got *Table) {
	t.Helper()
	if got.Len() != f.tbl.Len() {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), f.tbl.Len())
	}
	dec := NewExecutor()
	dec.Keys.Add(f.ring)
	plain, err := dec.DecryptTable(got)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for ri, row := range plain.Rows {
		for ci, v := range row {
			want := f.tbl.Rows[ri][ci]
			if ci == 4 { // Paillier fixed point: four decimals
				if d := v.F - want.F; d > 1e-4 || d < -1e-4 {
					t.Fatalf("%s: row %d col %d = %v, want %v", label, ri, ci, v, want)
				}
				continue
			}
			if v != want {
				t.Fatalf("%s: row %d col %d = %v, want %v", label, ri, ci, v, want)
			}
		}
	}
}

// encStatsDelta runs fn and returns how the process-global cache and crypto
// counters moved across it.
func encStatsDelta(fn func()) (EncCacheStats, crypto.Stats) {
	c0, k0 := ReadEncCacheStats(), crypto.ReadStats()
	fn()
	c1, k1 := ReadEncCacheStats(), crypto.ReadStats()
	return EncCacheStats{
			Stream: c1.Stream - c0.Stream, Fill: c1.Fill - c0.Fill, Serve: c1.Serve - c0.Serve,
		}, crypto.Stats{
			DetEncrypts: k1.DetEncrypts - k0.DetEncrypts, RndEncrypts: k1.RndEncrypts - k0.RndEncrypts,
			OPEEncrypts: k1.OPEEncrypts - k0.OPEEncrypts, PheEncrypts: k1.PheEncrypts - k0.PheEncrypts,
		}
}

func encrypts(s crypto.Stats) uint64 {
	return s.DetEncrypts + s.RndEncrypts + s.OPEEncrypts + s.PheEncrypts
}

// TestEncCacheLifecycle pins second-touch admission: the first execution
// streams and keeps nothing, the second fills, later ones serve without a
// single crypto call, and every one of them decrypts to the table. A NULL
// in the dictionary column changes nothing: the fill encrypts the column
// cell by cell and publishes it.
func TestEncCacheLifecycle(t *testing.T) {
	withNull := encFixtureTable(func(rows [][]Value) { rows[200][0] = Null() })
	if cols, err := withNull.Columns(); err != nil || cols[0].Kind != ColDict || !cols[0].hasNulls() {
		t.Fatalf("fixture: want a dictionary column holding a NULL (%v)", err)
	}
	for name, tbl := range map[string]*Table{"plain": nil, "NULL in the dictionary column": withNull} {
		t.Run(name, func(t *testing.T) {
			f := newEncFixture(t, tbl)
			want := []EncCacheStats{{Stream: 1}, {Fill: 1}, {Serve: 1}, {Serve: 1}}
			for i, w := range want {
				var got *Table
				cache, cr := encStatsDelta(func() { got = f.run(t, f.enc) })
				f.requirePlain(t, fmt.Sprintf("run %d", i), got)
				if cache.Stream != w.Stream || cache.Fill != w.Fill || cache.Serve != w.Serve {
					t.Fatalf("run %d: outcome %+v, want %+v", i, cache, w)
				}
				if served := w.Serve == 1; served != (encrypts(cr) == 0) {
					t.Fatalf("run %d: served=%v but %d values were encrypted", i, served, encrypts(cr))
				}
				if pub := f.published(); pub != (i >= 1) {
					t.Fatalf("run %d: published=%v", i, pub)
				}
				// Publishing hands back the Paillier key's randomizer tables.
				if f.ring.PK.Precomputed() != (i == 0) {
					t.Fatalf("run %d: randomizer tables present=%v", i, f.ring.PK.Precomputed())
				}
			}
		})
	}
}

// TestEncCacheServedLayoutMatchesStreamed proves a served run hands
// downstream the column layouts, schemes, key ids and window boundaries the
// streaming operator produces — what keeps the transfer ledger identical.
func TestEncCacheServedLayoutMatchesStreamed(t *testing.T) {
	f := newEncFixture(t, nil)
	shape := func() []string {
		t.Helper()
		op, err := f.e.Clone().Build(f.enc)
		if err != nil {
			t.Fatal(err)
		}
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		defer op.Close()
		var out []string
		for {
			b, err := op.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				return out
			}
			for ci := range b.Cols {
				c := &b.Cols[ci]
				out = append(out, fmt.Sprintf("n=%d col=%d kind=%d scheme=%s key=%s len=%d dict=%d",
					b.N, ci, c.Kind, c.Scheme, c.KeyID, c.Len(), len(c.CipherDict)))
			}
		}
	}
	streamed, _, served := shape(), shape(), shape()
	if fmt.Sprint(streamed) != fmt.Sprint(served) {
		t.Fatalf("served layout differs from streamed\nstreamed: %v\nserved:   %v", streamed, served)
	}
}

// TestEncCacheAppendAndInvalidate: a table that grew or whose columnar cache
// was invalidated is never answered from ciphertext of the old snapshot.
func TestEncCacheAppendAndInvalidate(t *testing.T) {
	f := newEncFixture(t, nil)
	for i := 0; i < 3; i++ {
		f.run(t, f.enc)
	}
	if err := f.tbl.Append(encFixtureRow(encFixtureRows)); err != nil {
		t.Fatal(err)
	}
	var got *Table
	cache, cr := encStatsDelta(func() { got = f.run(t, f.enc) })
	f.requirePlain(t, "after append", got)
	if cache.Serve != 0 || cr.PheEncrypts != uint64(f.tbl.Len()) {
		t.Fatalf("after append: %+v with %d Paillier encryptions, want a re-encryption of %d rows", cache, cr.PheEncrypts, f.tbl.Len())
	}
	cache, _ = encStatsDelta(func() { got = f.run(t, f.enc) })
	f.requirePlain(t, "served after append", got)
	if cache.Serve != 1 {
		t.Fatalf("the run after the re-fill was not served: %+v", cache)
	}

	f.tbl.Rows[0][2] = Int(99) // in-place rewrite: callers must invalidate
	f.tbl.InvalidateColumns()
	cache, _ = encStatsDelta(func() { got = f.run(t, f.enc) })
	f.requirePlain(t, "after invalidate", got)
	if cache.Serve != 0 {
		t.Fatalf("served stale ciphertext after InvalidateColumns: %+v", cache)
	}
}

// TestEncCacheKeyIdentity is the regression guard for caching by key id: key
// ids derive from attribute names and repeat across plans whose rings
// differ, so two plans over one table, both driven to the served state, must
// each keep decrypting under their own ring — and a ring replaced inside one
// plan's key store must not be answered with the old ring's ciphertext.
func TestEncCacheKeyIdentity(t *testing.T) {
	a := newEncFixture(t, nil)
	b := newEncFixture(t, a.tbl)
	if a.ring == b.ring || a.ring.ID != b.ring.ID {
		t.Fatal("fixture: want two distinct rings under one key id")
	}
	for i := 0; i < 4; i++ {
		a.requirePlain(t, fmt.Sprintf("plan A run %d", i), a.run(t, a.enc))
		b.requirePlain(t, fmt.Sprintf("plan B run %d", i), b.run(t, b.enc))
	}
	if cache, _ := encStatsDelta(func() { a.run(t, a.enc); b.run(t, b.enc) }); cache.Serve != 2 {
		t.Fatalf("both plans should be serving: %+v", cache)
	}

	fresh, err := crypto.NewKeyRing("kR", testPaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	a.e.Keys.Add(fresh)
	a.ring = fresh
	var got *Table
	cache, _ := encStatsDelta(func() { got = a.run(t, a.enc) })
	a.requirePlain(t, "plan A under its replaced ring", got)
	if cache.Serve != 0 {
		t.Fatalf("served the old ring's ciphertext: %+v", cache)
	}
}

// published reports whether the fixture's operator has a fill to serve.
func (f *encFixture) published() bool {
	f.e.enc.mu.Lock()
	defer f.e.enc.mu.Unlock()
	ent := f.e.enc.entries[f.enc]
	return ent != nil && ent.pub != nil
}

// encCacheDigest hashes every byte of ciphertext the fixture's published
// fill holds.
func (f *encFixture) encCacheDigest(t testing.TB) [sha256.Size]byte {
	t.Helper()
	f.e.enc.mu.Lock()
	defer f.e.enc.mu.Unlock()
	ent := f.e.enc.entries[f.enc]
	if ent == nil || ent.pub == nil {
		t.Fatal("nothing published")
	}
	h := sha256.New()
	for i := range ent.pub.cols {
		c := &ent.pub.cols[i]
		for _, b := range c.Bytes {
			h.Write(b)
		}
		for _, b := range c.CipherDict {
			h.Write(b)
		}
		for _, code := range c.Codes {
			h.Write([]byte{byte(code), byte(code >> 8), byte(code >> 16), byte(code >> 24)})
		}
		for j := range c.Vals {
			h.Write(c.Vals[j].C.Phe.Bytes())
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestEncCacheOperandsNeverMutated runs the two hot consumer shapes over
// served ciphertext — a filtered group-by with Paillier sums and averages
// (TPC-H Q1) and a join feeding a Paillier sum (Q18) — ten times each and
// requires the cached bytes to be untouched: an
// accumulator aliasing its first operand would let Paillier.AddTo corrupt
// the cache for every later run.
func TestEncCacheOperandsNeverMutated(t *testing.T) {
	f := newEncFixture(t, nil)
	sums := []algebra.AggSpec{{Func: sql.AggSum, Attr: f.v}, {Func: sql.AggAvg, Attr: f.v}, {Star: true, Func: sql.AggCount}}
	q1 := algebra.NewDecrypt(algebra.NewGroupBy(f.enc, []algebra.Attr{f.k}, sums, 3), []algebra.Attr{f.k, f.v})

	// A second plaintext relation S(k2) joined on the det-encrypted key.
	k2 := algebra.A("S", "k2")
	side := NewTable([]algebra.Attr{k2})
	for i := 0; i < 3; i++ {
		side.Rows = append(side.Rows, []Value{String(fmt.Sprintf("g%d", i))})
	}
	f.e.Tables["S"] = side
	encS := algebra.NewEncrypt(algebra.NewBase("S", "A", side.Schema, 3, nil), side.Schema)
	encS.Schemes[k2], encS.KeyIDs[k2] = algebra.SchemeDeterministic, "kR"
	join := algebra.NewJoin(encS, f.enc, &algebra.CmpAA{L: k2, Op: sql.OpEq, R: f.k}, 0.3)
	q18 := algebra.NewDecrypt(algebra.NewGroupBy(join, []algebra.Attr{k2},
		[]algebra.AggSpec{{Func: sql.AggSum, Attr: f.v}}, 3), []algebra.Attr{k2, f.v})

	for i := 0; i < 3; i++ { // stream, fill, first serve
		f.run(t, q1)
	}
	before := f.encCacheDigest(t)
	want1, want18 := f.run(t, q1).Format(nil), f.run(t, q18).Format(nil)
	for i := 0; i < 10; i++ {
		if got := f.run(t, q1).Format(nil); got != want1 {
			t.Fatalf("run %d: Q1 shape changed its answer\n%s\nwant\n%s", i, got, want1)
		}
		if got := f.run(t, q18).Format(nil); got != want18 {
			t.Fatalf("run %d: Q18 shape changed its answer\n%s\nwant\n%s", i, got, want18)
		}
	}
	if f.encCacheDigest(t) != before {
		t.Fatal("cached ciphertext changed under served runs")
	}
}

// TestEncCacheFailureAfterFill: a fill completes in Open, so a run that
// fails afterwards — its consumer stops early, the run is cancelled, the
// scan below fails — leaves a correct published fill, and the next
// execution serves it.
func TestEncCacheFailureAfterFill(t *testing.T) {
	fail := map[string]func(t *testing.T, f *encFixture){
		"early close": func(t *testing.T, f *encFixture) {
			op, err := f.e.Clone().Build(f.enc)
			if err != nil {
				t.Fatal(err)
			}
			if err := op.Open(); err != nil {
				t.Fatal(err)
			}
			if b, err := op.Next(); err != nil || b == nil {
				t.Fatalf("first batch: %v %v", b, err)
			}
			op.Close()
		},
		"cancelled": func(t *testing.T, f *encFixture) {
			ctx, cancel := context.WithCancel(context.Background())
			ex := f.e.Clone()
			ex.Ctx = ctx
			ex.Faults = &FaultPoints{Hook: func(_ string, batch int) {
				if batch == 2 {
					cancel()
				}
			}}
			if _, err := ex.Run(f.enc); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run: %v", err)
			}
		},
		"scan fault": func(t *testing.T, f *encFixture) {
			ex := f.e.Clone()
			ex.Faults = &FaultPoints{Ops: map[string]FaultSpec{
				f.enc.Child.Op(): {Kind: FaultError, NthBatch: 3},
			}}
			if _, err := ex.Run(f.enc); !errors.Is(err, ErrInjected) {
				t.Fatalf("faulted run: %v", err)
			}
		},
	}
	for name, fail := range fail {
		t.Run(name, func(t *testing.T) {
			f := newEncFixture(t, nil)
			f.run(t, f.enc) // first touch
			cache, _ := encStatsDelta(func() { fail(t, f) })
			if cache.Fill != 1 || !f.published() {
				t.Fatalf("the failing run should have published its fill: %+v", cache)
			}
			var got *Table
			cache, cr := encStatsDelta(func() { got = f.run(t, f.enc) })
			f.requirePlain(t, "run after the failed run", got)
			if cache.Serve != 1 || encrypts(cr) != 0 {
				t.Fatalf("run after the failed run: %+v with %d encryptions, want serve", cache, encrypts(cr))
			}
		})
	}
}

// TestEncCacheFailedFillPublishesNothing: a fill whose encryption fails — a
// NULL in the Paillier column, which pheEncode refuses — fails its run,
// publishes nothing and leaves the entry fillable: once the cell is
// mended, the next execution fills and the one after serves.
func TestEncCacheFailedFillPublishesNothing(t *testing.T) {
	tbl := encFixtureTable(func(rows [][]Value) { rows[200][4] = Null() })
	f := newEncFixture(t, tbl)
	for i, w := range []EncCacheStats{{Stream: 1}, {Fill: 1}, {Fill: 1}} {
		cache, _ := encStatsDelta(func() {
			if _, err := f.e.Clone().Run(f.enc); err == nil {
				t.Fatalf("run %d encrypted a NULL under Paillier", i)
			}
		})
		if cache != w || f.published() {
			t.Fatalf("run %d: outcome %+v, published=%v; want %+v and nothing published", i, cache, f.published(), w)
		}
	}
	tbl.Rows[200][4] = encFixtureRow(200)[4]
	tbl.InvalidateColumns()
	for i, w := range []EncCacheStats{{Fill: 1}, {Serve: 1}} {
		var got *Table
		cache, _ := encStatsDelta(func() { got = f.run(t, f.enc) })
		f.requirePlain(t, fmt.Sprintf("run %d after the mend", i), got)
		if cache != w {
			t.Fatalf("run %d after the mend: outcome %+v, want %+v", i, cache, w)
		}
	}
}

// pheCancelCtx reports itself cancelled once the process has performed
// `after` more Paillier encryptions than it had when the context was made.
type pheCancelCtx struct {
	context.Context
	at   uint64
	done chan struct{}
	once sync.Once
}

func newPheCancelCtx(after uint64) *pheCancelCtx {
	return &pheCancelCtx{Context: context.Background(), at: crypto.ReadStats().PheEncrypts + after, done: make(chan struct{})}
}

func (c *pheCancelCtx) Done() <-chan struct{} {
	if crypto.ReadStats().PheEncrypts >= c.at {
		c.once.Do(func() { close(c.done) })
	}
	return c.done
}

func (c *pheCancelCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestEncCacheCancelDuringFill cancels a fill once it has encrypted one
// batch of its five-batch Paillier column: the run returns the context's
// error within one more batch of work and publishes nothing.
func TestEncCacheCancelDuringFill(t *testing.T) {
	f := newEncFixture(t, nil)
	f.run(t, f.enc) // first touch
	batch := uint64(f.e.BatchSize)
	if encFixtureRows < 3*batch {
		t.Fatalf("fixture: %d rows are fewer than three batches", encFixtureRows)
	}
	ex := f.e.Clone()
	ex.Ctx = newPheCancelCtx(batch)
	var err error
	cache, cr := encStatsDelta(func() { _, err = ex.Run(f.enc) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fill: %v", err)
	}
	if cache.Fill != 1 || f.published() {
		t.Fatalf("cancelled fill: outcome %+v, published=%v", cache, f.published())
	}
	if cr.PheEncrypts < batch || cr.PheEncrypts > 2*batch {
		t.Fatalf("cancelled fill encrypted %d Paillier cells, want one to two batches of %d", cr.PheEncrypts, batch)
	}
}

// TestEncCacheConcurrentDuringFill starts eight executions of one plan
// together right after its first touch: one of them fills, the rest stream
// beside it, all are correct, and the plan serves afterwards.
func TestEncCacheConcurrentDuringFill(t *testing.T) {
	f := newEncFixture(t, nil)
	f.run(t, f.enc)
	const clients = 8
	start := make(chan struct{})
	results := make([]*Table, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	cache, _ := encStatsDelta(func() {
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-start
				results[c], errs[c] = f.e.Clone().Run(f.enc)
			}(c)
		}
		close(start)
		wg.Wait()
	})
	for c := range results {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		f.requirePlain(t, fmt.Sprintf("client %d", c), results[c])
	}
	if cache.Fill == 0 || cache.Fill+cache.Stream+cache.Serve != clients {
		t.Fatalf("outcomes of %d concurrent runs: %+v", clients, cache)
	}
	cache, cr := encStatsDelta(func() { f.requirePlain(t, "after the fill", f.run(t, f.enc)) })
	if cache.Serve != 1 || encrypts(cr) != 0 {
		t.Fatalf("run after the concurrent fill: %+v, %d encryptions", cache, encrypts(cr))
	}
}

// TestEncCacheBypass: an encrypt whose child is a spliced sub-result never
// touches the cache.
func TestEncCacheBypass(t *testing.T) {
	f := newEncFixture(t, nil)
	cache, _ := encStatsDelta(func() {
		for i := 0; i < 3; i++ {
			ex := f.e.Clone()
			ex.Materialized = map[algebra.Node]*Table{f.enc.Child: f.tbl}
			got, err := ex.Run(f.enc)
			if err != nil {
				t.Fatal(err)
			}
			f.requirePlain(t, "bypass", got)
		}
	})
	if cache != (EncCacheStats{}) {
		t.Fatalf("a spliced encrypt moved the cache counters: %+v", cache)
	}
}

// TestEncCacheFaultShimAndTrace: an armed-but-silent fault shim or a trace
// changes nothing about admission, and the served run's spans still account
// the encrypt and its scan.
func TestEncCacheFaultShimAndTrace(t *testing.T) {
	f := newEncFixture(t, nil)
	f.e.Faults = &FaultPoints{Hook: func(string, int) {}}
	for i := 0; i < 2; i++ {
		f.requirePlain(t, fmt.Sprintf("run %d", i), f.run(t, f.enc))
	}
	tr := obs.NewTrace()
	ex := f.e.Clone()
	ex.Trace = tr
	var got *Table
	cache, cr := encStatsDelta(func() {
		var err error
		if got, err = ex.Run(f.enc); err != nil {
			t.Fatal(err)
		}
	})
	f.requirePlain(t, "served", got)
	if cache.Serve != 1 || encrypts(cr) != 0 {
		t.Fatalf("third run %+v with %d encryptions, want serve", cache, encrypts(cr))
	}
	sp := tr.ByRef(f.enc)
	if sp == nil || !sp.Cached() || sp.Rows() != int64(f.tbl.Len()) || sp.Batches() == 0 {
		t.Fatalf("served encrypt span %+v", sp)
	}
	if scan := tr.ByRef(f.enc.Child); scan == nil || scan.Rows() != int64(f.tbl.Len()) {
		t.Fatal("served run lost the scan span")
	}
}

// TestEncCacheBytesGauge: the process-wide gauge carries a published fill
// while its plan lives and lets go of it once the plan is collected.
func TestEncCacheBytesGauge(t *testing.T) {
	f := newEncFixture(t, nil)
	f.run(t, f.enc)
	f.run(t, f.enc)
	var held int64
	for i := range f.e.enc.entries[f.enc].pub.cols {
		held += cipherColumnBytes(&f.e.enc.entries[f.enc].pub.cols[i])
	}
	// Every cell keeps at least its payload: 16 B of IV per symmetric cell,
	// one group element per Paillier cell.
	if min := int64(f.tbl.Len()) * (16 + 16 + 8 + 4*testPaillierBits/8); held < min {
		t.Fatalf("fill accounted %d bytes, want at least %d", held, min)
	}
	with := ReadEncCacheStats().Bytes
	if with < held {
		t.Fatalf("gauge %d does not cover the %d bytes just published", with, held)
	}
	f = nil
	deadline := time.Now().Add(20 * time.Second)
	for ReadEncCacheStats().Bytes > with-held {
		if time.Now().After(deadline) {
			t.Fatalf("gauge still %d after the plan was dropped (was %d with %d held)", ReadEncCacheStats().Bytes, with, held)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCompactPaillier: re-homed ciphertexts are value-identical, sit in
// exact-size limbs, and share nothing with the originals.
func TestCompactPaillier(t *testing.T) {
	ring, err := crypto.NewKeyRing("k1", testPaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]Value, 40)
	for i := range vals {
		vals[i] = Float(float64(i) * 1.5)
	}
	enc, err := EncryptColumn(ring, algebra.SchemePaillier, vals)
	if err != nil {
		t.Fatal(err)
	}
	in := NewColumn(enc)
	out := compactPaillier(in)
	if out.Kind != ColAny || len(out.Vals) != len(enc) {
		t.Fatalf("compacted column: kind %d len %d", out.Kind, len(out.Vals))
	}
	for i := range enc {
		a, b := enc[i].C, out.Vals[i].C
		if a.Phe.Cmp(b.Phe) != 0 || a.KeyID != b.KeyID || a.Scheme != b.Scheme || a.Div != b.Div || a.Plain != b.Plain {
			t.Fatalf("cell %d changed", i)
		}
		if w := b.Phe.Bits(); cap(w) != len(w) {
			t.Fatalf("cell %d: limbs cap %d len %d", i, cap(w), len(w))
		}
		if a.Phe == b.Phe || &a.Phe.Bits()[0] == &b.Phe.Bits()[0] {
			t.Fatalf("cell %d still aliases the original", i)
		}
	}
	if plain := NewColumn(vals); compactPaillier(plain).Floats == nil {
		t.Fatal("a plaintext column must pass through unchanged")
	}
}
