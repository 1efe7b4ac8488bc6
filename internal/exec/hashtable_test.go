package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/crypto"
)

// The flat hash tables of the hash join and the group-by must find exactly
// what a map keyed by the canonical cell key (appendCellKey) finds. The
// reference below is that map, kept here and nowhere else.

// batchSource replays a fixed list of batches.
type batchSource struct {
	schema  []algebra.Attr
	batches []*Batch
	pos     int
}

func (s *batchSource) Schema() []algebra.Attr { return s.schema }
func (s *batchSource) Open() error            { s.pos = 0; return nil }
func (s *batchSource) Close() error           { return nil }
func (s *batchSource) Next() (*Batch, error) {
	if s.pos == len(s.batches) {
		return nil, nil
	}
	s.pos++
	return s.batches[s.pos-1], nil
}

var tableLayouts = []ColKind{ColInt, ColFloat, ColStr, ColDict, ColCipherBytes, ColCipherDict, ColAny}

var layoutNames = map[ColKind]string{ColInt: "ColInt", ColFloat: "ColFloat", ColStr: "ColStr", ColDict: "ColDict",
	ColCipherBytes: "ColCipherBytes", ColCipherDict: "ColCipherDict", ColAny: "ColAny"}

// keyDomain renders key number v in each layout's form: ints and floats of
// the same number never match each other, strings and their deterministic
// ciphertexts match only within the plaintext or the ciphertext layouts.
type keyDomain struct {
	ring *crypto.KeyRing
	strs []string
	dets [][]byte
}

func newKeyDomain(t *testing.T, n int) *keyDomain {
	ring, err := crypto.NewSymmetricKeyRing("kt")
	if err != nil {
		t.Fatal(err)
	}
	d := &keyDomain{ring: ring, strs: make([]string, n), dets: make([][]byte, n)}
	for v := range d.strs {
		d.strs[v] = fmt.Sprintf("k%d", v)
		c, err := EncryptValue(ring, algebra.SchemeDeterministic, String(d.strs[v]))
		if err != nil {
			t.Fatal(err)
		}
		d.dets[v] = c.C.Data
	}
	return d
}

// column builds keys as one column of the given layout; v < 0 is NULL. A
// ColAny column mixes ints, floats and strings.
func (d *keyDomain) column(kind ColKind, keys []int, rng *rand.Rand) Column {
	n := len(keys)
	c := Column{Kind: kind}
	switch kind {
	case ColInt:
		c.Ints = make([]int64, n)
	case ColFloat:
		c.Floats = make([]float64, n)
	case ColStr:
		c.Strs = make([]string, n)
	case ColCipherBytes:
		c.Scheme, c.KeyID = algebra.SchemeDeterministic, d.ring.ID
		c.Bytes, c.Plains = make([][]byte, n), make([]Kind, n)
	case ColDict, ColCipherDict:
		c.Codes = make([]uint32, n)
		c.Dict = d.strs
		if kind == ColCipherDict {
			c.Dict, c.CipherDict = nil, d.dets
			c.Scheme, c.KeyID = algebra.SchemeDeterministic, d.ring.ID
		}
	case ColAny:
		c.Vals = make([]Value, n)
	}
	for i, v := range keys {
		if v < 0 {
			if kind == ColAny {
				c.Vals[i] = Null()
			} else {
				c.setNull(i, n)
			}
			if kind == ColDict || kind == ColCipherDict {
				c.Codes[i] = dictNullCode
			}
			continue
		}
		switch kind {
		case ColInt:
			c.Ints[i] = int64(v)
		case ColFloat:
			c.Floats[i] = float64(v)
		case ColStr:
			c.Strs[i] = d.strs[v]
		case ColCipherBytes:
			c.Bytes[i], c.Plains[i] = d.dets[v], KString
		case ColDict, ColCipherDict:
			c.Codes[i] = uint32(v)
		case ColAny:
			c.Vals[i] = []Value{Int(int64(v)), Float(float64(v)), String(d.strs[v])}[rng.Intn(3)]
		}
	}
	return c
}

// batches cuts keys into batches of random sizes, one key column each.
func (d *keyDomain) batches(kind ColKind, keys []int, rng *rand.Rand) []*Batch {
	var out []*Batch
	for len(keys) > 0 {
		n := 1 + rng.Intn(700)
		if n > len(keys) {
			n = len(keys)
		}
		out = append(out, &Batch{Cols: []Column{d.column(kind, keys[:n], rng)}, N: n})
		keys = keys[n:]
	}
	return out
}

// randomKeys draws n keys from [0, domain), a tenth of them NULL when nulls
// is set.
func randomKeys(rng *rand.Rand, n, domain int, nulls bool) []int {
	keys := make([]int, n)
	for i := range keys {
		keys[i] = rng.Intn(domain)
		if nulls && rng.Intn(10) == 0 {
			keys[i] = -1
		}
	}
	return keys
}

// refJoin is the reference join index: canonical key → build rows in
// build-row order, NULL keys left out.
func refJoin(t *testing.T, build []*Batch) map[string][]buildRef {
	ref := make(map[string][]buildRef)
	for bi, b := range build {
		for ri := 0; ri < b.N; ri++ {
			if b.Cols[0].IsNull(ri) {
				continue
			}
			k, err := cellKey(&b.Cols[0], ri)
			if err != nil {
				t.Fatal(err)
			}
			ref[k] = append(ref[k], buildRef{int32(bi), int32(ri)})
		}
	}
	return ref
}

// nonNull counts the non-NULL keys of batches.
func nonNull(batches []*Batch) int {
	n := 0
	for _, b := range batches {
		for ri := 0; ri < b.N; ri++ {
			if !b.Cols[0].IsNull(ri) {
				n++
			}
		}
	}
	return n
}

// probeAll probes every row of probe into idx and returns each row's
// matches, in chain order.
func probeAll(idx *joinIndex, probe []*Batch) ([][]buildRef, error) {
	var out [][]buildRef
	for _, b := range probe {
		hs := make([]uint64, b.N)
		if err := hashKeys(hs, &b.Cols[0]); err != nil {
			return nil, err
		}
		for ri, h := range hs {
			var m []buildRef
			for e := idx.seek(&b.Cols[0], ri, h); e >= 0; e = idx.advance(e, h, &b.Cols[0], ri) {
				m = append(m, idx.rows[e])
			}
			out = append(out, m)
		}
	}
	return out, nil
}

func checkProbes(t *testing.T, what string, ref map[string][]buildRef, probe []*Batch, got [][]buildRef) {
	t.Helper()
	i := 0
	for _, b := range probe {
		for ri := 0; ri < b.N; ri++ {
			var want []buildRef
			if !b.Cols[0].IsNull(ri) {
				k, err := cellKey(&b.Cols[0], ri)
				if err != nil {
					t.Fatal(err)
				}
				want = ref[k]
			}
			if fmt.Sprint(got[i]) != fmt.Sprint(want) {
				t.Fatalf("%s: probe row %d (%v) found %v, want %v", what, i, b.Cols[0].Value(ri), got[i], want)
			}
			i++
		}
	}
}

func buildIndex(t *testing.T, build []*Batch) *joinIndex {
	t.Helper()
	src := &batchSource{schema: []algebra.Attr{algebra.A("B", "k")}, batches: build}
	idx, _, err := buildJoinIndex(src, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestJoinTableMatchesCanonicalMap probes every build × probe layout pair
// with random keys, duplicates and NULLs, against the canonical-key map. The
// large case indexes 12 000 build rows over 6 000 keys, so bucket chains
// hold colliding keys as well as duplicates.
func TestJoinTableMatchesCanonicalMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dom := newKeyDomain(t, 6000)
	for _, bk := range tableLayouts {
		for _, pk := range tableLayouts {
			for _, c := range []struct {
				name                   string
				build, probe           int
				domain                 int
				buildNulls, probeNulls bool
			}{
				{"empty build", 0, 200, 50, false, true},
				{"duplicates", 400, 300, 40, false, false},
				{"NULL probes", 400, 300, 40, false, true},
				{"NULLs on both sides", 400, 300, 40, true, true},
				{"collisions", 12000, 3000, 6000, false, false},
			} {
				what := fmt.Sprintf("%s build × %s probe, %s", layoutNames[bk], layoutNames[pk], c.name)
				build := dom.batches(bk, randomKeys(rng, c.build, c.domain, c.buildNulls), rng)
				probe := dom.batches(pk, randomKeys(rng, c.probe, c.domain, c.probeNulls), rng)
				idx := buildIndex(t, build)
				if want := nonNull(build); len(idx.rows) != want || len(idx.keys.hashes) != want {
					t.Fatalf("%s: %d rows and %d hashes indexed, want one per non-NULL key, %d", what, len(idx.rows), len(idx.keys.hashes), want)
				}
				got, err := probeAll(idx, probe)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				checkProbes(t, what, refJoin(t, build), probe, got)
			}
		}
	}
}

// TestJoinTableConcurrentProbes probes one built index from eight
// goroutines at once; CI runs it under the race detector.
func TestJoinTableConcurrentProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dom := newKeyDomain(t, 2000)
	for _, bk := range []ColKind{ColInt, ColDict} {
		build := dom.batches(bk, randomKeys(rng, 10000, 2000, false), rng)
		idx := buildIndex(t, build)
		ref := refJoin(t, build)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			probe := dom.batches(tableLayouts[g%len(tableLayouts)], randomKeys(rng, 2000, 2000, true), rng)
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := probeAll(idx, probe)
				if err != nil {
					t.Error(err)
					return
				}
				checkProbes(t, fmt.Sprintf("%s build, goroutine %d", layoutNames[bk], g), ref, probe, got)
			}()
		}
		wg.Wait()
	}
}

// TestGroupTableMatchesCanonicalMap feeds key tuples into a groupTable and
// checks each row lands in the group the canonical-key map assigns in
// first-seen order, NULLs forming one group, and that the emitted key
// columns hold each group's first-seen cells. It runs random keys over
// every pair of layouts, then key columns whose layout, dictionary or
// cells change between the batches of one table.
func TestGroupTableMatchesCanonicalMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dom := newKeyDomain(t, 6000)
	for _, ak := range tableLayouts {
		for _, bk := range tableLayouts {
			n, domain := 3000, 40
			if ak == bk {
				n, domain = 12000, 6000 // single-layout pairs also grow the table far
			}
			a, b := randomKeys(rng, n, domain, true), randomKeys(rng, n, 3, true)
			var batches []*Batch
			for len(a) > 0 {
				m := min(1+rng.Intn(500), len(a))
				batches = append(batches, &Batch{Cols: []Column{dom.column(ak, a[:m], rng), dom.column(bk, b[:m], rng)}, N: m})
				a, b = a[m:], b[m:]
			}
			checkGroupTable(t, layoutNames[ak]+" × "+layoutNames[bk], batches)
		}
	}

	one := func(c Column) *Batch { return &Batch{Cols: []Column{c}, N: c.Len()} }
	ints := func(vs ...Value) Column { return Column{Kind: ColAny, Vals: vs} }
	// A second dictionary holding dom.strs in reverse order.
	rev := slices.Clone(dom.strs)
	slices.Reverse(rev)
	revDict := func(keys []int) Column {
		c := dom.column(ColDict, keys, rng)
		c.Dict = rev
		for i, v := range keys {
			if v >= 0 {
				c.Codes[i] = uint32(len(rev) - 1 - v)
			}
		}
		return c
	}
	seq := func(lo, hi int) []int {
		keys := make([]int, 0, hi-lo)
		for v := lo; v < hi; v++ {
			keys = append(keys, v)
		}
		return keys
	}
	nullAfter := append(seq(30, 100), -1, 5, -1, 120)
	negZero, nan2 := math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000001)
	for _, c := range []struct {
		name    string
		batches []*Batch
	}{
		{"ColInt, then ColAny ints", []*Batch{
			one(dom.column(ColInt, []int{3, 1, 3, -1, 7}, rng)),
			one(ints(Int(7), Int(2), Null(), Int(3), Int(1))),
			one(dom.column(ColInt, []int{2, 9, 1}, rng)),
		}},
		{"ColStr, then ColDict", []*Batch{
			one(dom.column(ColStr, []int{4, 8, 4, -1}, rng)),
			one(dom.column(ColDict, []int{8, 5, -1, 4, 5}, rng)),
		}},
		{"ColDict under two dictionaries", []*Batch{
			one(dom.column(ColDict, []int{10, 11, 10}, rng)),
			one(revDict([]int{11, 12, -1, 10})),
			one(dom.column(ColDict, []int{12, 13, -1}, rng)),
		}},
		{"ColCipherBytes, then ColCipherDict under one key", []*Batch{
			one(intPlains(dom.column(ColCipherBytes, []int{1, 2, 1}, rng))),
			one(dom.column(ColCipherDict, []int{2, 3, 1, 3}, rng)),
		}},
		{"first NULL after more than 64 groups", []*Batch{
			one(dom.column(ColInt, seq(0, 70), rng)),
			one(dom.column(ColInt, nullAfter, rng)),
			one(dom.column(ColStr, seq(0, 70), rng)),
		}},
		{"first NULL after more than 64 string groups", []*Batch{
			one(dom.column(ColStr, seq(0, 130), rng)),
			one(dom.column(ColDict, nullAfter, rng)),
		}},
		{"-0.0 against 0.0, and NaN", []*Batch{
			one(NewColumn([]Value{Float(0), Float(negZero), Float(math.NaN()), Float(nan2)})),
			one(NewColumn([]Value{Float(math.NaN()), Float(negZero), Float(0), Float(nan2), Null()})),
		}},
		{"int 1 against float 1.0", []*Batch{
			one(NewColumn([]Value{Float(1), Float(2)})),
			one(dom.column(ColInt, []int{1, 2}, rng)),
			one(ints(Int(1), Float(1), Int(3), Float(3))),
		}},
	} {
		checkGroupTable(t, c.name, c.batches)
	}
}

// intPlains marks every cell of a ciphertext column as an encrypted int.
func intPlains(c Column) Column {
	for i := range c.Plains {
		c.Plains[i] = KInt
	}
	return c
}

// checkGroupTable ingests batches into one groupTable keyed by all their
// columns, checking every row's group against the canonical-key map, and
// then that the emitted key columns, in windows of 100 groups, hold each
// group's first-seen cells.
func checkGroupTable(t *testing.T, what string, batches []*Batch) {
	t.Helper()
	nk := len(batches[0].Cols)
	keyIdx := make([]int, nk)
	for k := range keyIdx {
		keyIdx[k] = k
	}
	gt := newGroupTable(keyIdx, nil, nil, nil)
	ref := make(map[string]int)
	var first [][]Value // group → its first row's key cells
	for bi, b := range batches {
		gs, err := gt.assign(b)
		if err != nil {
			t.Fatalf("%s: batch %d: %v", what, bi, err)
		}
		for ri := 0; ri < b.N; ri++ {
			var k string
			row := make([]Value, nk)
			for ci := range b.Cols {
				ck, err := cellKey(&b.Cols[ci], ri)
				if err != nil {
					t.Fatal(err)
				}
				k += ck
				row[ci] = b.Cols[ci].Value(ri)
			}
			want, ok := ref[k]
			if !ok {
				want = len(ref)
				ref[k] = want
				first = append(first, row)
			}
			if want >= gt.groups() || int(gs[ri]) != want {
				t.Fatalf("%s: batch %d row %v lands in group %d, want group %d of %d", what, bi, row, gs[ri], want, gt.groups())
			}
		}
	}
	if gt.groups() != len(ref) {
		t.Fatalf("%s: %d groups, want %d", what, gt.groups(), len(ref))
	}
	for lo := 0; lo < gt.groups(); lo += 100 {
		w := gt.window(lo, min(lo+100, gt.groups()), false)
		for g := lo; g < lo+w.N; g++ {
			for k := range w.Cols {
				if got, want := w.Cols[k].Value(g-lo), first[g][k]; !sameCell(got, want) {
					t.Fatalf("%s: group %d emits key %d as %v (layout %s), first seen as %v", what, g, k, got, layoutNames[w.Cols[k].Kind], want)
				}
			}
		}
	}
}

// sameCell reports whether two cells are the same value: kind, content,
// floats by bit pattern, and a ciphertext's scheme, key, bytes and plain
// kind.
func sameCell(a, b Value) bool {
	if a.Kind != b.Kind || a.I != b.I || math.Float64bits(a.F) != math.Float64bits(b.F) || a.S != b.S {
		return false
	}
	return a.C == nil || b.C != nil && a.C.Scheme == b.C.Scheme && a.C.KeyID == b.C.KeyID &&
		string(a.C.Data) == string(b.C.Data) && a.C.Plain == b.C.Plain
}

// TestHashTablesRefuseUnlinkableKeys checks that randomized and Paillier
// ciphertexts still cannot key a join build, a join probe (into an int or
// a byte table) or a group.
func TestHashTablesRefuseUnlinkableKeys(t *testing.T) {
	ring, err := crypto.NewKeyRing("kp", 128)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := EncryptValue(ring, algebra.SchemeRandom, Int(1))
	if err != nil {
		t.Fatal(err)
	}
	phe, err := EncryptValue(ring, algebra.SchemePaillier, Int(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Value{rnd, phe} {
		col := NewColumn([]Value{v, v})
		bad := []*Batch{{Cols: []Column{col}, N: 2}}
		src := &batchSource{schema: []algebra.Attr{algebra.A("B", "k")}, batches: bad}
		if _, _, err := buildJoinIndex(src, 0, nil, nil); err == nil || !strings.Contains(err.Error(), "cannot group/join") {
			t.Errorf("%s build: err %v, want cannot group/join", v.C.Scheme, err)
		}
		for _, keys := range [][]Value{{Int(1)}, {String("a")}} {
			good := NewColumn(keys)
			idx := buildIndex(t, []*Batch{{Cols: []Column{good}, N: 1}})
			if _, err := probeAll(idx, bad); err == nil || !strings.Contains(err.Error(), "cannot group/join") {
				t.Errorf("%s probe into %s table: err %v, want cannot group/join", v.C.Scheme, layoutNames[good.Kind], err)
			}
		}
		if _, err := newGroupTable([]int{0}, nil, nil, nil).assign(bad[0]); err == nil || !strings.Contains(err.Error(), "cannot group/join") {
			t.Errorf("%s group: err %v, want cannot group/join", v.C.Scheme, err)
		}
	}
}

// TestJoinAndGroupTablesAgree checks that the hash join and the group-by
// answer "one key?" alike: over random cells in every pair of layouts, two
// non-NULL cells join exactly when one group table puts them in one group.
// Besides keyDomain's cells, int columns carry ints holding a float's bit
// pattern, which hash as that float does, and generic columns carry those
// ints and det ciphertexts.
func TestJoinAndGroupTablesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dom := newKeyDomain(t, 30)
	floatBits := func(v int) int64 { return int64(math.Float64bits(float64(v))) }
	batches := func(kind ColKind, keys []int) []*Batch {
		var out []*Batch
		for len(keys) > 0 {
			n := min(1+rng.Intn(100), len(keys))
			c := dom.column(kind, keys[:n], rng)
			for i, v := range keys[:n] {
				switch {
				case v < 0 || rng.Intn(4) > 0:
				case kind == ColInt:
					c.Ints[i] = floatBits(v)
				case kind == ColAny:
					det := Enc(&Cipher{Scheme: algebra.SchemeDeterministic, KeyID: dom.ring.ID, Data: dom.dets[v], Plain: KString})
					c.Vals[i] = []Value{Int(floatBits(v)), det}[rng.Intn(2)]
				}
			}
			out = append(out, &Batch{Cols: []Column{c}, N: n})
			keys = keys[n:]
		}
		return out
	}
	joined := 0
	for _, bk := range tableLayouts {
		for _, pk := range tableLayouts {
			what := layoutNames[bk] + " build × " + layoutNames[pk] + " probe"
			build := batches(bk, randomKeys(rng, 300, 30, true))
			joined += checkJoinAgreesWithGroups(t, what, build, batches(pk, randomKeys(rng, 300, 30, true)))
		}
	}
	if joined == 0 {
		t.Fatal("no random pair joined")
	}

	one := func(c Column) []*Batch { return []*Batch{{Cols: []Column{c}, N: c.Len()}} }
	bits, oneF := Column{Kind: ColInt, Ints: []int64{4607182418800017408}}, Column{Kind: ColFloat, Floats: []float64{1}}
	hb, _ := cellHash(&bits, 0)
	if hf, _ := cellHash(&oneF, 0); hb != hf {
		t.Fatal("int 4607182418800017408 and float 1.0 no longer share a hash: the cases below test nothing")
	}
	for _, c := range []struct {
		name         string
		build, probe Column
		want         int
	}{
		{"int 4607182418800017408 against float 1.0", bits, oneF, 0},
		{"float 1.0 against int 4607182418800017408", oneF, bits, 0},
		{"det cipher bytes against cipher dict of one value", dom.column(ColCipherBytes, []int{5}, rng), dom.column(ColCipherDict, []int{5}, rng), 1},
		{"det cipher dict against cipher bytes of one value", dom.column(ColCipherDict, []int{7}, rng), dom.column(ColCipherBytes, []int{7}, rng), 1},
	} {
		if got := checkJoinAgreesWithGroups(t, c.name, one(c.build), one(c.probe)); got != c.want {
			t.Errorf("%s: %d pairs joined, want %d", c.name, got, c.want)
		}
	}
}

// checkJoinAgreesWithGroups indexes build, probes it with probe, and feeds
// both into one group table: each non-NULL probe row must join exactly the
// non-NULL build rows of its group, in build-row order, and a NULL one
// nothing. It returns the number of pairs joined.
func checkJoinAgreesWithGroups(t *testing.T, what string, build, probe []*Batch) int {
	t.Helper()
	got, err := probeAll(buildIndex(t, build), probe)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	gt := newGroupTable([]int{0}, nil, nil, nil)
	var refs []buildRef
	var groups []int32 // of refs
	for bi, b := range build {
		gs, err := gt.assign(b)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for ri := 0; ri < b.N; ri++ {
			if !b.Cols[0].IsNull(ri) {
				refs, groups = append(refs, buildRef{int32(bi), int32(ri)}), append(groups, gs[ri])
			}
		}
	}
	i, joined := 0, 0
	for _, b := range probe {
		gs, err := gt.assign(b)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for ri := 0; ri < b.N; ri++ {
			var want []buildRef
			for k, g := range groups {
				if g == gs[ri] && !b.Cols[0].IsNull(ri) {
					want = append(want, refs[k])
				}
			}
			if fmt.Sprint(got[i]) != fmt.Sprint(want) {
				t.Fatalf("%s: probe row %d (%v) joined %v, its group holds %v", what, i, b.Cols[0].Value(ri), got[i], want)
			}
			joined += len(got[i])
			i++
		}
	}
	return joined
}
