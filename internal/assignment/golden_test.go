package assignment_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"mpq/internal/assignment"
	"mpq/internal/core"
	"mpq/internal/tpch"
)

const tpchDecisionsGolden = "testdata/tpch_decisions.golden"

// TestOptimizeMatchesTPCHGolden pins what Optimize decides on the 198 TPC-H
// cells (66 cells at each reference scale): per cell, the SHA-256 of its
// fingerprint must equal the committed line. An optimizer change that is
// meant to be decision-neutral keeps this green. Run with -v, the test logs
// every cell's line prefixed "decision ", which is how the file is made:
//
//	go test -count=1 -v -run TestOptimizeMatchesTPCHGolden ./internal/assignment |
//		sed -n 's/^ *golden_test.go:[0-9]*: decision //p' > internal/assignment/testdata/tpch_decisions.golden
func TestOptimizeMatchesTPCHGolden(t *testing.T) {
	data, err := os.ReadFile(tpchDecisionsGolden)
	if err != nil {
		t.Error(err) // go on: the logged lines are the file's content
	}
	want := make(map[string]string) // "sf scenario query" → fingerprint hash
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			want[line[:i]] = line[i+1:]
		}
	}
	m := tpch.Model()
	for _, sf := range referenceScales {
		tpchCells(t, sf, func(sc tpch.Scenario, q tpch.Query, sys *core.System, an *core.Analysis) {
			res, err := assignment.Optimize(sys, an, m, assignment.Options{})
			if err != nil {
				t.Fatalf("sf %g %s/%s: %v", sf, sc, q.Name, err)
			}
			cell := fmt.Sprintf("%g %s Q%02d", sf, sc, q.Num)
			sum := fmt.Sprintf("%x", sha256.Sum256([]byte(fingerprint(an, res))))
			t.Log("decision", cell, sum)
			if want[cell] != sum {
				t.Errorf("%s: decisions hash to %s, golden has %q", cell, sum, want[cell])
			}
			delete(want, cell)
		})
	}
	for cell := range want {
		t.Errorf("golden line %q names no cell", cell)
	}
}
