package plangen

import (
	"testing"

	"mpq/internal/algebra"
)

func TestGeneratorDeterministic(t *testing.T) {
	a := New(DefaultConfig(42))
	b := New(DefaultConfig(42))
	pa := a.Plan(a.Relations())
	pb := b.Plan(b.Relations())
	if algebra.Format(pa, nil) != algebra.Format(pb, nil) {
		t.Errorf("same seed produced different plans")
	}
	c := New(DefaultConfig(43))
	pc := c.Plan(c.Relations())
	if algebra.Format(pa, nil) == algebra.Format(pc, nil) {
		t.Errorf("different seeds produced identical plans")
	}
}

func TestGeneratorBounds(t *testing.T) {
	// Degenerate configs are clamped.
	g := New(Config{Relations: 0, AttrsPerRel: 0, Seed: 1})
	rels := g.Relations()
	if len(rels) != 1 || len(rels[0].Columns) != 2 {
		t.Errorf("clamping failed: %d relations, %d cols", len(rels), len(rels[0].Columns))
	}
	root := g.Plan(rels)
	if root == nil {
		t.Fatal("nil plan")
	}
}

func TestGeneratedPlanShape(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		g := New(Config{Relations: 3, AttrsPerRel: 4, ExtraOps: 5, UDFs: true, Seed: seed})
		rels := g.Relations()
		root := g.Plan(rels)
		// Exactly len(rels) leaves; joins connect them.
		leaves, joins := 0, 0
		algebra.PostOrder(root, func(n algebra.Node) {
			switch n.(type) {
			case *algebra.Base:
				leaves++
			case *algebra.Join:
				joins++
			}
		})
		if leaves != len(rels) {
			t.Fatalf("seed %d: leaves = %d, want %d", seed, leaves, len(rels))
		}
		if joins != len(rels)-1 {
			t.Fatalf("seed %d: joins = %d, want %d", seed, joins, len(rels)-1)
		}
		// No encryption nodes in generated plans (extension adds them).
		algebra.PostOrder(root, func(n algebra.Node) {
			switch n.(type) {
			case *algebra.Encrypt, *algebra.Decrypt:
				t.Fatalf("seed %d: generated plan contains crypto nodes", seed)
			}
		})
	}
}

func TestConformModeExcludesDroppingOps(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		g := New(Config{Relations: 2, AttrsPerRel: 4, ExtraOps: 8, UDFs: true, Conform: true, Seed: seed})
		root := g.Plan(g.Relations())
		algebra.PostOrder(root, func(n algebra.Node) {
			switch n.(type) {
			case *algebra.Project, *algebra.GroupBy:
				t.Fatalf("seed %d: conform plan contains a profile-dropping operator %s", seed, n.Op())
			}
		})
	}
}

func TestRandomAttrSubset(t *testing.T) {
	g := New(DefaultConfig(5))
	rels := g.Relations()
	plain, enc := g.RandomAttrSubset(rels)
	if plain.Intersects(enc) {
		t.Errorf("plain and enc overlap")
	}
	total := 0
	for _, r := range rels {
		total += len(r.Columns)
	}
	if plain.Len()+enc.Len() == 0 || plain.Len()+enc.Len() > total {
		t.Errorf("subset sizes = %d + %d of %d", plain.Len(), enc.Len(), total)
	}
}

func TestSubjectNames(t *testing.T) {
	names := SubjectNames(3)
	if len(names) != 4 || names[0] != "U" || names[3] != "P2" {
		t.Errorf("names = %v", names)
	}
}
