package main

import (
	"math"
	"sort"
	"strings"
	"sync"

	"mpq/internal/algebra"
	"mpq/internal/authz"
	"mpq/internal/exec"
	"mpq/internal/planner"
)

// canon serializes a result table to canonical bytes: floats rounded to 2
// decimals, integers normalized to floats (Paillier fixed-point sums of
// integers decode as integers where plaintext accumulation yields floats),
// rows sorted. Two executions agree iff their canonical bytes are equal.
// This is the rule of internal/engine's conformance tests, restated here
// because the benchmark may not reach into another package's test files.
func canon(t *exec.Table) string {
	rows := make([]string, len(t.Rows))
	for i, row := range t.Rows {
		var sb strings.Builder
		for _, v := range row {
			sb.WriteByte('|')
			switch v.Kind {
			case exec.KFloat:
				sb.WriteString(exec.Float(math.Round(v.F*100) / 100).String())
			case exec.KInt:
				sb.WriteString(exec.Float(float64(v.I)).String())
			default:
				sb.WriteString(v.String())
			}
		}
		rows[i] = sb.String()
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// oracle is the ground truth: one trusted executor holding every base table
// in plaintext, running the planner's plan centralized. The authorization
// state never changes what a query returns, only who computes it, so one
// answer per statement checks every policy state.
type oracle struct {
	planner *planner.Planner
	tables  map[string]*exec.Table
	mu      sync.Mutex        // the clients of a timed phase check side by side
	answers map[string]string // statement text → canonical result
}

// maxAnswers bounds the remembered answers. The repeating workloads have 22
// statements at most; on the ad-hoc one no statement comes back, and a memo
// that grew with every query would put throughput into peak_rss_mb.
const maxAnswers = 64

func newOracle(cat *algebra.Catalog, placed map[authz.Subject]map[string]*exec.Table) *oracle {
	o := &oracle{planner: planner.New(cat), tables: make(map[string]*exec.Table), answers: make(map[string]string)}
	for _, tables := range placed {
		for name, t := range tables {
			o.tables[name] = t
		}
	}
	return o
}

// exec runs a planned statement centralized in plaintext.
func (o *oracle) exec(plan *planner.Plan) (*exec.Table, error) {
	trusted := exec.NewExecutor()
	trusted.Tables = o.tables
	t, _, err := trusted.RunPlan(plan)
	return t, err
}

// answer returns the canonical plaintext result of a statement, computed on
// first use.
func (o *oracle) answer(sqlText string) (string, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if a, ok := o.answers[sqlText]; ok {
		return a, nil
	}
	plan, err := o.planner.PlanSQL(sqlText)
	if err != nil {
		return "", err
	}
	t, err := o.exec(plan)
	if err != nil {
		return "", err
	}
	a := canon(t)
	if len(o.answers) >= maxAnswers {
		o.answers = make(map[string]string)
	}
	o.answers[sqlText] = a
	return a, nil
}
