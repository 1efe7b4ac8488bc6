package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mpq/internal/engine"
	"mpq/internal/tpch"
)

// testServer builds a server over a tiny TPC-H deployment.
func testServer(t *testing.T, pprofOn bool) *httptest.Server {
	t.Helper()
	cfg := engine.TPCHConfig(tpch.UAPmix, 0.001, 7)
	cfg.PaillierBits = 128
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Metrics().GoRuntimeCollectors()
	ts := httptest.NewServer((&server{eng: eng}).routes(pprofOn))
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

const q6 = `{"sql": "select sum(l_revenue) from lineitem where l_shipdate >= 730 and l_shipdate < 1095 and l_discount >= 0.05 and l_discount <= 0.07 and l_quantity < 24"}`

func TestQueryTraceParameter(t *testing.T) {
	ts := testServer(t, false)

	// Untraced: no trace key in the response.
	resp := postJSON(t, ts.URL+"/query", q6)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query = %d", resp.StatusCode)
	}
	var plain struct {
		Rows  [][]string          `json:"rows"`
		Trace *engine.Explanation `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&plain); err != nil {
		t.Fatal(err)
	}
	if len(plain.Rows) == 0 {
		t.Fatal("query returned no rows")
	}
	if plain.Trace != nil {
		t.Error("untraced query carried a trace")
	}

	// Traced: same rows plus the annotated plan.
	resp = postJSON(t, ts.URL+"/query?trace=1", q6)
	defer resp.Body.Close()
	var traced struct {
		Rows  [][]string          `json:"rows"`
		Trace *engine.Explanation `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&traced); err != nil {
		t.Fatal(err)
	}
	if len(traced.Rows) != len(plain.Rows) {
		t.Errorf("traced query returned %d rows, untraced %d", len(traced.Rows), len(plain.Rows))
	}
	if traced.Trace == nil || traced.Trace.Plan == nil {
		t.Fatal("traced query returned no annotated plan")
	}
	if traced.Trace.Plan.TimeNs == 0 {
		t.Error("trace root operator carries no wall time")
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts := testServer(t, false)

	resp := postJSON(t, ts.URL+"/explain", q6)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /explain = %d", resp.StatusCode)
	}
	var ex engine.Explanation
	if err := json.NewDecoder(resp.Body).Decode(&ex); err != nil {
		t.Fatal(err)
	}
	if ex.Plan == nil || ex.Plan.Op == "" {
		t.Fatal("explain returned no plan")
	}

	resp = postJSON(t, ts.URL+"/explain?format=text", q6)
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("text explain Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "rows=") {
		t.Errorf("text explain missing annotations:\n%s", body)
	}
}

func TestMetricsAndStatsEndpoints(t *testing.T) {
	ts := testServer(t, false)
	postJSON(t, ts.URL+"/query", q6).Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"mpq_engine_queries_total 1",
		"# TYPE mpq_engine_phase_seconds histogram",
		"mpq_crypto_values_total{",
		"go_goroutines",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	// The pre-registry JSON keys must survive, with the snapshot alongside.
	for _, key := range []string{
		"queries", "cache_hits", "cache_misses", "errors",
		"invalidations", "transfers", "bytes_shipped",
		"cached_plans", "authz_version", "metrics",
	} {
		if _, ok := stats[key]; !ok {
			t.Errorf("/stats missing key %q", key)
		}
	}
}

func TestPprofGated(t *testing.T) {
	off := testServer(t, false)
	resp, err := http.Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof served without -pprof")
	}

	on := testServer(t, true)
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with -pprof = %d", resp.StatusCode)
	}
}

// TestMemoryRefusalIs503 checks that a query refused by the memory budget
// answers 503 (the server is short of memory, not the query malformed),
// while a malformed query still answers 422.
func TestMemoryRefusalIs503(t *testing.T) {
	cfg := engine.TPCHConfig(tpch.UA, 0.001, 7)
	cfg.MemBudget = 4 << 10
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer((&server{eng: eng}).routes(false))
	t.Cleanup(ts.Close)
	for _, c := range []struct {
		sql  string
		want int
	}{
		{"select o_orderpriority, count(*) from orders, lineitem where o_orderkey = l_orderkey group by o_orderpriority", http.StatusServiceUnavailable},
		{"select no_such_column from orders", http.StatusUnprocessableEntity},
	} {
		body, err := json.Marshal(map[string]string{"sql": c.sql})
		if err != nil {
			t.Fatal(err)
		}
		resp := postJSON(t, ts.URL+"/query", string(body))
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d (%s), want %d", c.sql, resp.StatusCode, strings.TrimSpace(string(msg)), c.want)
		}
	}
}
