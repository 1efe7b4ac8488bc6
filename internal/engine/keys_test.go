package engine

import (
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/authz"
	"mpq/internal/crypto"
	"mpq/internal/sql"
	"mpq/internal/tpch"
)

// TestKeyMaterialDef61 prepares all 22 TPC-H queries under every scenario
// and checks the key material each subject receives (Definition 6.1, with
// the per-attribute schemes of Section 5): a key's ring carries a Paillier
// pair exactly when one of its attributes is encrypted under Paillier; the
// key's holders get the full ring; any other subject holds a ring only for
// a Paillier key, and then only its public part; no subject holds a ring
// with neither symmetric nor Paillier material; and preparing generates
// exactly one Paillier pair per Paillier key. Which keys need Paillier is
// read off the plan's encryption operations, independently of the rule
// DistributeKeys applies.
func TestKeyMaterialDef61(t *testing.T) {
	for _, sc := range tpch.Scenarios() {
		eng, err := New(testConfig(t, sc))
		if err != nil {
			t.Fatal(err)
		}
		before := crypto.ReadStats().PaillierKeygens
		paillierKeys := 0
		for _, q := range tpch.Queries() {
			stmt, err := sql.Parse(q.SQL)
			if err != nil {
				t.Fatal(err)
			}
			pq, err := eng.prepare(stmt, eng.policy.Version(), eng.policy)
			if err != nil {
				t.Fatalf("%s/%s: %v", sc, q.Name, err)
			}
			ext := pq.result.Extended
			phe := make(map[string]bool)
			algebra.PostOrder(ext.Root, func(n algebra.Node) {
				if enc, ok := n.(*algebra.Encrypt); ok {
					for _, a := range enc.Attrs {
						if enc.Schemes[a] == algebra.SchemePaillier {
							phe[enc.KeyIDs[a]] = true
						}
					}
				}
			})
			paillierKeys += len(phe)

			holders := make(map[string]map[authz.Subject]bool, len(ext.Keys))
			for _, k := range ext.Keys {
				ring, err := pq.keys.Get(k.ID)
				if err != nil {
					t.Fatalf("%s/%s: user lacks %s: %v", sc, q.Name, k.ID, err)
				}
				if (ring.PK != nil) != phe[k.ID] || !ring.CanDecrypt() {
					t.Errorf("%s/%s: user's ring %s: master %v, Paillier %v; key needs Paillier: %v",
						sc, q.Name, k.ID, ring.CanDecrypt(), ring.PK != nil, phe[k.ID])
				}
				holders[k.ID] = make(map[authz.Subject]bool, len(k.Holders))
				for _, h := range k.Holders {
					holders[k.ID][h] = true
				}
			}
			if n := len(pq.keys.IDs()); n != len(ext.Keys) {
				t.Errorf("%s/%s: user holds %d rings for %d keys", sc, q.Name, n, len(ext.Keys))
			}

			for _, s := range tpch.Subjects() {
				store := pq.network.Subject(s).Keys
				for _, id := range store.IDs() {
					ring, _ := store.Get(id)
					full, _ := pq.keys.Get(id)
					switch {
					case !ring.CanDecrypt() && ring.PK == nil:
						t.Errorf("%s/%s: %s holds %s with no key material", sc, q.Name, s, id)
					case holders[id][s]:
						if ring != full {
							t.Errorf("%s/%s: holder %s lacks the full ring of %s", sc, q.Name, s, id)
						}
					case !phe[id]:
						t.Errorf("%s/%s: non-holder %s holds a ring for non-Paillier key %s", sc, q.Name, s, id)
					case ring.CanDecrypt() || ring.PK.HasPrivate():
						t.Errorf("%s/%s: non-holder %s holds private material of %s", sc, q.Name, s, id)
					}
				}
			}
		}
		if got := crypto.ReadStats().PaillierKeygens - before; got != uint64(paillierKeys) {
			t.Errorf("%s: preparing 22 queries generated %d Paillier pairs for %d Paillier keys", sc, got, paillierKeys)
		}
		t.Logf("%s: %d Paillier keys", sc, paillierKeys)
	}
}
