package algebra

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// refSet is the map-backed attribute set the bitset must behave like.
type refSet map[Attr]struct{}

func (r refSet) sorted() []Attr {
	out := make([]Attr, 0, len(r))
	for a := range r {
		out = append(out, a)
	}
	slices.SortFunc(out, func(a, b Attr) int {
		if a.Less(b) {
			return -1
		}
		if b.Less(a) {
			return 1
		}
		return 0
	})
	return out
}

func (r refSet) String() string {
	parts := make([]string, 0, len(r))
	for _, a := range r.sorted() {
		parts = append(parts, a.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

func (r refSet) subsetOf(t refSet) bool {
	for a := range r {
		if _, ok := t[a]; !ok {
			return false
		}
	}
	return true
}

// wideUniverse returns 150 attributes of one relation plus count(*): their
// ids span at least three 64-bit words.
func wideUniverse(t *testing.T, rel string) []Attr {
	t.Helper()
	u := []Attr{CountAttr()}
	for i := range 150 {
		u = append(u, A(rel, fmt.Sprintf("c%03d", i)))
	}
	lo, hi := -1, -1
	for _, a := range u {
		id := attrID(a)
		if lo < 0 || id < lo {
			lo = id
		}
		hi = max(hi, id)
	}
	if hi>>6 == lo>>6 {
		t.Fatalf("universe ids %d..%d fit in one word", lo, hi)
	}
	return u
}

// TestAttrSetMatchesMapReference runs random sequences of set operations on
// bitset sets and on map-backed reference sets side by side, and requires
// every observation (membership, size, order, rendering, relations between
// sets) to agree, and no result to share storage with an operand.
func TestAttrSetMatchesMapReference(t *testing.T) {
	universe := wideUniverse(t, "Wide")
	rnd := rand.New(rand.NewSource(7))
	const slots = 4
	sets := make([]AttrSet, slots)
	refs := make([]refSet, slots)
	for i := range refs {
		refs[i] = refSet{}
	}
	pick := func() Attr { return universe[rnd.Intn(len(universe))] }
	check := func(step int, op string, s AttrSet, r refSet) {
		t.Helper()
		if got, want := s.Sorted(), r.sorted(); !slices.Equal(got, want) {
			t.Fatalf("step %d %s: Sorted = %v, want %v", step, op, got, want)
		}
		if s.String() != r.String() {
			t.Fatalf("step %d %s: String = %s, want %s", step, op, s, r)
		}
		if s.Len() != len(r) || s.Empty() != (len(r) == 0) {
			t.Fatalf("step %d %s: Len = %d, Empty = %v, want %d", step, op, s.Len(), s.Empty(), len(r))
		}
		n := 0
		for a := range s.All() {
			if _, ok := r[a]; !ok {
				t.Fatalf("step %d %s: All yields %v, not a member", step, op, a)
			}
			n++
		}
		if n != len(r) {
			t.Fatalf("step %d %s: All yields %d attributes, want %d", step, op, n, len(r))
		}
	}
	binary := map[string]func(s, u AttrSet) AttrSet{
		"Union":     AttrSet.Union,
		"Intersect": AttrSet.Intersect,
		"Diff":      AttrSet.Diff,
	}
	refBinary := map[string]func(s, u refSet) refSet{
		"Union": func(s, u refSet) refSet {
			out := refSet{}
			for a := range s {
				out[a] = struct{}{}
			}
			for a := range u {
				out[a] = struct{}{}
			}
			return out
		},
		"Intersect": func(s, u refSet) refSet {
			out := refSet{}
			for a := range s {
				if _, ok := u[a]; ok {
					out[a] = struct{}{}
				}
			}
			return out
		},
		"Diff": func(s, u refSet) refSet {
			out := refSet{}
			for a := range s {
				if _, ok := u[a]; !ok {
					out[a] = struct{}{}
				}
			}
			return out
		},
	}
	ops := []string{"Add", "Remove", "Has", "Union", "Intersect", "Diff", "Relations", "Clone"}
	for step := range 20000 {
		i, j := rnd.Intn(slots), rnd.Intn(slots)
		switch op := ops[rnd.Intn(len(ops))]; op {
		case "Add":
			for range 1 + rnd.Intn(4) {
				a := pick()
				sets[i].Add(a)
				refs[i][a] = struct{}{}
			}
			check(step, op, sets[i], refs[i])
		case "Remove":
			a := pick()
			if rnd.Intn(2) == 0 && len(refs[i]) > 0 {
				a = refs[i].sorted()[rnd.Intn(len(refs[i]))]
			}
			sets[i].Remove(a)
			delete(refs[i], a)
			check(step, op, sets[i], refs[i])
		case "Has":
			a := pick()
			if _, want := refs[i][a]; sets[i].Has(a) != want {
				t.Fatalf("step %d: Has(%v) = %v, want %v", step, a, !want, want)
			}
		case "Union", "Intersect", "Diff":
			before := [2]AttrSet{sets[i].Clone(), sets[j].Clone()}
			res := binary[op](sets[i], sets[j])
			want := refBinary[op](refs[i], refs[j])
			check(step, op, res, want)
			// The result owns its storage: scribbling over it leaves
			// both operands as they were.
			for _, a := range universe {
				res.Add(a)
			}
			for _, a := range universe[:len(universe)/2] {
				res.Remove(a)
			}
			if !sets[i].Equal(before[0]) || !sets[j].Equal(before[1]) {
				t.Fatalf("step %d: %s result shares storage with an operand", step, op)
			}
			if rnd.Intn(2) == 0 {
				sets[i], refs[i] = binary[op](before[0], before[1]), want
			}
		case "Relations":
			s, u, rs, ru := sets[i], sets[j], refs[i], refs[j]
			if s.SubsetOf(u) != rs.subsetOf(ru) {
				t.Fatalf("step %d: SubsetOf = %v, want %v", step, s.SubsetOf(u), rs.subsetOf(ru))
			}
			if want := rs.subsetOf(ru) && ru.subsetOf(rs); s.Equal(u) != want {
				t.Fatalf("step %d: Equal = %v, want %v", step, s.Equal(u), want)
			}
			if want := len(refBinary["Intersect"](rs, ru)) > 0; s.Intersects(u) != want {
				t.Fatalf("step %d: Intersects = %v, want %v", step, s.Intersects(u), want)
			}
		case "Clone":
			c := sets[i].Clone()
			c.Add(pick())
			check(step, op, sets[i], refs[i])
			sets[j] = sets[i].Clone()
			refs[j] = refBinary["Union"](refs[i], refSet{})
			check(step, op, sets[j], refs[j])
		}
	}
}

// TestAttrSetConcurrentInterning interns one batch of new attributes from
// several goroutines at once, in different orders, and requires every
// goroutine to see one id per attribute and to build equal sets.
func TestAttrSetConcurrentInterning(t *testing.T) {
	const workers = 8
	var attrs []Attr
	for i := range 200 {
		attrs = append(attrs, A(fmt.Sprintf("Conc%d", i%7), fmt.Sprintf("x%d", i)))
	}
	sets := make([]AttrSet, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			order := slices.Clone(attrs)
			rand.New(rand.NewSource(int64(w))).Shuffle(len(order), func(i, j int) {
				order[i], order[j] = order[j], order[i]
			})
			for _, a := range order {
				sets[w].Add(a)
				if !sets[w].Has(a) {
					t.Errorf("worker %d: %v missing right after Add", w, a)
				}
				_ = sets[w].String()
			}
		}()
	}
	wg.Wait()
	ids := make(map[int]Attr)
	for _, a := range attrs {
		id, ok := lookupID(a)
		if !ok {
			t.Fatalf("%v was not interned", a)
		}
		if prev, dup := ids[id]; dup {
			t.Fatalf("%v and %v share id %d", prev, a, id)
		}
		ids[id] = a
	}
	for w := 1; w < workers; w++ {
		if !sets[w].Equal(sets[0]) {
			t.Fatalf("worker %d built %v, worker 0 built %v", w, sets[w], sets[0])
		}
	}
	if got := sets[0].Len(); got != len(attrs) {
		t.Fatalf("set holds %d attributes, want %d", got, len(attrs))
	}
}
