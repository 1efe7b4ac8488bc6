package distsim

import (
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/core"
	"mpq/internal/crypto"
	"mpq/internal/exec"
)

// centralRun is the one reference the runtime is checked against: the
// extended plan evaluated by exec's row-at-a-time evaluator on a single
// trusted executor holding every table of nw's subjects, the full key
// store and the plan's constants. Every node is evaluated once, children
// first. It returns the decrypted root relation and, per cross-subject edge
// (EdgeKey), the rows of the shipped node's subtree: what the edge carries
// unless the plan marks it for partial aggregation.
func centralRun(t *testing.T, nw *Network, ext *core.ExtendedPlan, keys *crypto.KeyStore, consts exec.ConstCache) (*exec.Table, map[string]int) {
	t.Helper()
	c := exec.NewExecutor()
	c.Materializing = true
	c.Keys = keys
	c.Consts = consts
	c.Materialized = make(map[algebra.Node]*exec.Table)
	for _, s := range nw.subjects {
		for name, tbl := range s.Tables {
			c.Tables[name] = tbl
		}
	}
	at := ext.Assign.Executor
	shipped := make(map[string]int)
	var err error
	algebra.PostOrder(ext.Root, func(n algebra.Node) {
		if err != nil {
			return
		}
		var rel *exec.Table
		if rel, err = c.Run(n); err != nil {
			return
		}
		c.Materialized[n] = rel
		for _, ch := range n.Children() {
			if at(ch) != at(n) {
				shipped[EdgeKey(at(ch), at(n))] += c.Materialized[ch].Len()
			}
		}
	})
	if err != nil {
		t.Fatalf("central reference: %v", err)
	}
	root, err := c.DecryptTable(c.Materialized[ext.Root])
	if err != nil {
		t.Fatalf("central reference: %v", err)
	}
	return root, shipped
}
