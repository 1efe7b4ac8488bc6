package dispatch

import (
	"crypto/rsa"
	"strings"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/authz"
	"mpq/internal/core"
	"mpq/internal/sql"
)

var (
	hS = algebra.A("Hosp", "S")
	hD = algebra.A("Hosp", "D")
	hT = algebra.A("Hosp", "T")
	iC = algebra.A("Ins", "C")
	iP = algebra.A("Ins", "P")
)

func examplePolicy() *authz.Policy {
	p := authz.NewPolicy()
	p.MustGrant("Hosp", "H", []string{"S", "B", "D", "T"}, nil)
	p.MustGrant("Hosp", "U", []string{"S", "D", "T"}, nil)
	p.MustGrant("Hosp", "X", []string{"D", "T"}, []string{"S"})
	p.MustGrant("Hosp", "Y", []string{"B", "D", "T"}, []string{"S"})
	p.MustGrant("Ins", "I", []string{"C", "P"}, nil)
	p.MustGrant("Ins", "U", []string{"C", "P"}, nil)
	p.MustGrant("Ins", "X", nil, []string{"C", "P"})
	p.MustGrant("Ins", "Y", []string{"P"}, []string{"C"})
	return p
}

// runningPlan builds the running example's plan over the given Hosp leaf
// and returns its four operations, root last.
func runningPlan(hosp *algebra.Base) (sel, join, grp, hav algebra.Node) {
	ins := algebra.NewBase("Ins", "I", []algebra.Attr{iC, iP}, 5000, nil)
	sel = algebra.NewSelect(hosp, &algebra.CmpAV{A: hD, Op: sql.OpEq, V: sql.StringValue("stroke")}, 0.1)
	join = algebra.NewJoin(sel, ins, &algebra.CmpAA{L: hS, Op: sql.OpEq, R: iC}, 0.0002)
	grp = algebra.NewGroupBy1(join, []algebra.Attr{hT}, sql.AggAvg, iP, false, 10)
	hav = algebra.NewSelect(grp, &algebra.CmpAV{A: iP, Op: sql.OpGt, V: sql.NumberValue(100), Agg: sql.AggAvg}, 0.5)
	return
}

// figure7aPlan builds the running example extended per Figure 7(a).
func figure7aPlan(t *testing.T) (*core.System, *core.ExtendedPlan) {
	t.Helper()
	sys := core.NewSystem(examplePolicy(), "H", "I", "U", "X", "Y")
	sel, join, grp, hav := runningPlan(algebra.NewBase("Hosp", "H", []algebra.Attr{hS, hD, hT}, 1000, nil))
	an := sys.Analyze(hav, nil)
	ext, err := sys.Extend(an, core.Assignment{sel: "H", join: "X", grp: "X", hav: "Y"})
	if err != nil {
		t.Fatal(err)
	}
	return sys, ext
}

// TestFigure8Partition reproduces the dispatch structure of Figure 8: Y's
// request consumes X's, which consumes H's and I's.
func TestFigure8Partition(t *testing.T) {
	_, ext := figure7aPlan(t)
	d := Partition(ext)

	if d.Root.Subject != "Y" {
		t.Fatalf("root fragment at %s, want Y", d.Root.Subject)
	}
	if len(d.Root.Inputs) != 1 || d.Root.Inputs[0].Subject != "X" {
		t.Fatalf("Y inputs = %v", d.Root.Inputs)
	}
	x := d.Root.Inputs[0]
	if len(x.Inputs) != 2 {
		t.Fatalf("X inputs = %d, want 2 (H and I)", len(x.Inputs))
	}
	subs := map[authz.Subject]bool{}
	for _, in := range x.Inputs {
		subs[in.Subject] = true
	}
	if !subs["H"] || !subs["I"] {
		t.Errorf("X consumes %v, want H and I", subs)
	}
	if len(d.Fragments) != 4 {
		t.Errorf("fragments = %d, want 4", len(d.Fragments))
	}

	// Key distribution per Figure 8: H gets kSC; I gets kSC and kP; Y gets
	// kP; X gets nothing.
	bysubj := map[authz.Subject]*Fragment{}
	for _, f := range d.Fragments {
		bysubj[f.Subject] = f
	}
	if got := bysubj["H"].KeyIDs; len(got) != 1 || got[0] != "kSC" {
		t.Errorf("H keys = %v", got)
	}
	if got := bysubj["I"].KeyIDs; len(got) != 2 || got[0] != "kP" || got[1] != "kSC" {
		t.Errorf("I keys = %v", got)
	}
	if got := bysubj["Y"].KeyIDs; len(got) != 1 || got[0] != "kP" {
		t.Errorf("Y keys = %v", got)
	}
	if got := bysubj["X"].KeyIDs; len(got) != 0 {
		t.Errorf("X keys = %v, want none", got)
	}

	// Rendered sub-queries mention the encryption steps and references.
	if !strings.Contains(bysubj["H"].SQL(), "encrypt(Hosp.S,kSC)") {
		t.Errorf("H sql = %s", bysubj["H"].SQL())
	}
	if !strings.Contains(bysubj["X"].SQL(), "⟦reqH⟧") || !strings.Contains(bysubj["X"].SQL(), "⟦reqI⟧") {
		t.Errorf("X sql = %s", bysubj["X"].SQL())
	}
	if !strings.Contains(bysubj["Y"].SQL(), "decrypt(Ins.P,kP)") {
		t.Errorf("Y sql = %s", bysubj["Y"].SQL())
	}
	if d.Format() == "" {
		t.Errorf("empty dispatch format")
	}
}

// TestPartitionOutsourcedRelation: a relation stored at a provider is
// scanned where it is hosted. On the examples/outsourced plan (Hosp of
// authority H stored, partially encrypted, at W; the selection assigned to
// W) the dispatch must not ask H to ship Hosp — W's authorization forbids
// the plaintext and the runtime reads the stored form at W — so there is no
// fragment at H and the scan sits inside W's request.
func TestPartitionOutsourcedRelation(t *testing.T) {
	pol := examplePolicy()
	pol.MustGrant("Hosp", "W", []string{"T"}, []string{"S", "B", "D"}) // exactly the stored form
	sys := core.NewSystem(pol, "H", "I", "U", "W", "X", "Y")
	sel, join, grp, hav := runningPlan(algebra.NewStoredBase("Hosp", "H", "W",
		[]algebra.Attr{hS, hD, hT}, []algebra.Attr{hS, hD}, "kStore", 1000, nil))
	ext, err := sys.Extend(sys.Analyze(hav, nil), core.Assignment{sel: "W", join: "Y", grp: "Y", hav: "Y"})
	if err != nil {
		t.Fatal(err)
	}

	d := Partition(ext)
	var atW *Fragment
	for _, f := range d.Fragments {
		switch f.Subject {
		case "H":
			t.Errorf("fragment at the authority H, which hosts nothing: %s", f.SQL())
		case "W":
			atW = f
		}
	}
	if atW == nil {
		t.Fatalf("no fragment at the storage provider W:\n%s", d.Format())
	}
	if len(atW.Inputs) != 0 || !strings.Contains(atW.SQL(), "(Hosp)") {
		t.Errorf("W's request does not scan the stored relation itself: %s", atW.SQL())
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	user, err := NewIdentity("U", 1024)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := NewIdentity("X", 1024)
	if err != nil {
		t.Fatal(err)
	}
	req := &Request{
		From: "U", To: "X", Fragment: "reqX",
		SQL: "σ[D = 'stroke'](Hosp)", Inputs: []string{"reqH"},
		KeyIDs: []string{"kSC"}, KeyBlobs: map[string][]byte{"kSC": {1, 2, 3}},
	}
	env, err := Seal(req, user, prov.Public())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(env, prov, user.Public())
	if err != nil {
		t.Fatal(err)
	}
	if got.SQL != req.SQL || got.Fragment != req.Fragment || len(got.KeyBlobs["kSC"]) != 3 {
		t.Errorf("round trip = %+v", got)
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	user, _ := NewIdentity("U", 1024)
	prov, _ := NewIdentity("X", 1024)
	other, _ := NewIdentity("Z", 1024)
	req := &Request{From: "U", To: "X", Fragment: "reqX", SQL: "q"}
	env, err := Seal(req, user, prov.Public())
	if err != nil {
		t.Fatal(err)
	}
	// Tampered ciphertext.
	env2 := *env
	env2.Ciphertext = append([]byte{}, env.Ciphertext...)
	env2.Ciphertext[0] ^= 1
	if _, err := Open(&env2, prov, user.Public()); err == nil {
		t.Errorf("tampered ciphertext accepted")
	}
	// Wrong recipient.
	if _, err := Open(env, other, user.Public()); err == nil {
		t.Errorf("wrong recipient decrypted")
	}
	// Wrong sender key (signature must fail).
	if _, err := Open(env, prov, other.Public()); err == nil {
		t.Errorf("forged sender accepted")
	}
}

func TestSealDispatch(t *testing.T) {
	_, ext := figure7aPlan(t)
	d := Partition(ext)
	user, err := NewIdentity("U", 1024)
	if err != nil {
		t.Fatal(err)
	}
	identities := make(map[authz.Subject]*Identity)
	recipients := make(map[authz.Subject]*rsa.PublicKey)
	for _, f := range d.Fragments {
		if _, ok := identities[f.Subject]; ok {
			continue
		}
		id, err := NewIdentity(f.Subject, 1024)
		if err != nil {
			t.Fatal(err)
		}
		identities[f.Subject] = id
		recipients[f.Subject] = id.Public()
	}
	blobs := map[string][]byte{"kSC": {0xAA}, "kP": {0xBB}}
	envs, err := SealDispatch(d, user, recipients, blobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != len(d.Fragments) {
		t.Fatalf("envelopes = %d, want %d", len(envs), len(d.Fragments))
	}
	for _, f := range d.Fragments {
		env := envs[f.ID]
		req, err := Open(env, identities[f.Subject], user.Public())
		if err != nil {
			t.Fatalf("open %s: %v", f.ID, err)
		}
		if req.SQL != f.SQL() {
			t.Errorf("%s: sql mismatch", f.ID)
		}
		// Only the keys of this fragment are included.
		for _, id := range f.KeyIDs {
			if len(req.KeyBlobs[id]) == 0 {
				t.Errorf("%s: missing key blob %s", f.ID, id)
			}
		}
		if len(req.KeyBlobs) != len(f.KeyIDs) {
			t.Errorf("%s: extra key material shipped: %v", f.ID, req.KeyBlobs)
		}
	}
	// A subject with no identity fails cleanly.
	delete(recipients, "X")
	if _, err := SealDispatch(d, user, recipients, blobs); err == nil {
		t.Errorf("missing recipient accepted")
	}
}
