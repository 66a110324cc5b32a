package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"privcount/client"
	"privcount/internal/service"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	svc := service.New(service.Config{Capacity: 32, Seed: 7})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(NewMux(svc))
	t.Cleanup(ts.Close)
	return ts
}

// getJSON GETs path and decodes the JSON response.
func getJSON(t *testing.T, ts *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s response: %v", path, err)
	}
	return resp.StatusCode, out
}

// doReq performs one request with an optional JSON body and decodes the
// JSON response generically.
func doReq(t *testing.T, ts, method, path string, body any) (*http.Response, map[string]any) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, ts+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s %s response: %v", method, path, err)
	}
	return resp, out
}

// waitReadyV2 polls GET /v2/mechanisms/{id} until the build settles.
func waitReadyV2(t *testing.T, ts, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, doc := doReq(t, ts, http.MethodGet, "/v2/mechanisms/"+url.PathEscape(id), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status poll for %s returned %d: %v", id, resp.StatusCode, doc)
		}
		switch doc["state"] {
		case "ready":
			return doc
		case "failed":
			t.Fatalf("build of %s failed: %v", id, doc)
		}
		if time.Now().After(deadline) {
			t.Fatalf("build of %s never became ready: %v", id, doc)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// ---- health, stats, gone v1 ----

func TestHealthAndStats(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	req := client.QueryRequest{Ops: []client.Op{{Op: "sample", ID: "em:n=8:a=0.8", Count: 3}}}
	if hr, out := doReq(t, ts.URL, http.MethodPost, "/v2/query", req); hr.StatusCode != http.StatusOK {
		t.Fatalf("sample status %d: %v", hr.StatusCode, out)
	}
	code, st := getJSON(t, ts, "/v2/stats")
	if code != http.StatusOK {
		t.Fatalf("/v2/stats status %d", code)
	}
	if st["entries"].(float64) != 1 {
		t.Errorf("entries = %v, want 1", st["entries"])
	}
	// The query above went through "POST /v2/query", so its latency
	// histogram has at least one observation and both quantiles are
	// positive; routes with no traffic report 0, not NaN.
	rl, ok := st["route_latency"].(map[string]any)
	if !ok {
		t.Fatalf("route_latency missing or wrong shape: %T", st["route_latency"])
	}
	q, ok := rl["POST /v2/query"].(map[string]any)
	if !ok {
		t.Fatalf("route_latency lacks POST /v2/query: %v", rl)
	}
	p50, p99 := q["p50"].(float64), q["p99"].(float64)
	if p50 <= 0 || p99 <= 0 || p99 < p50 {
		t.Errorf("query latency quantiles p50=%v p99=%v, want 0 < p50 <= p99", p50, p99)
	}
	// A route with no traffic reports 0 (JSON cannot carry NaN).
	if idle, ok := rl["PUT /v2/mechanisms/{id}"].(map[string]any); !ok {
		t.Fatalf("route_latency lacks PUT /v2/mechanisms/{id}: %v", rl)
	} else if idle["p50"].(float64) != 0 || idle["p99"].(float64) != 0 {
		t.Errorf("idle route quantiles = %v, want 0", idle)
	}
}

// TestV1Gone pins the retired surface: every old v1 route (and anything
// else under /v1/) answers 410 with the gone envelope and a Link to its
// v2 successor, for both methods the old routes spoke.
func TestV1Gone(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		method, path, successor string
	}{
		{http.MethodGet, "/v1/stats", "/v2/stats"},
		{http.MethodPost, "/v1/mechanism", "/v2/mechanisms"},
		{http.MethodGet, "/v1/mechanism/status?mechanism=gm&n=8&alpha=0.5", "/v2/mechanisms"},
		{http.MethodPost, "/v1/sample", "/v2/query"},
		{http.MethodPost, "/v1/batch", "/v2/query"},
		{http.MethodPost, "/v1/estimate", "/v2/query"},
		{http.MethodGet, "/v1/never-existed", "/v2/"},
	}
	for _, c := range cases {
		resp, out := doReq(t, ts.URL, c.method, c.path, map[string]any{"mechanism": "gm", "n": 8, "alpha": 0.5})
		if resp.StatusCode != http.StatusGone {
			t.Errorf("%s %s: status %d, want 410 (%v)", c.method, c.path, resp.StatusCode, out)
			continue
		}
		env, ok := out["error"].(map[string]any)
		if !ok || env["code"] != "gone" {
			t.Errorf("%s %s: body %v, want gone envelope", c.method, c.path, out)
		}
		want := fmt.Sprintf("<%s>; rel=%q", c.successor, "successor-version")
		if got := resp.Header.Get("Link"); got != want {
			t.Errorf("%s %s: Link = %q, want %q", c.method, c.path, got, want)
		}
	}
}

// TestStatsReportBuildPipeline checks the stats document carries the
// build-pipeline gauges the ops runbook polls.
func TestStatsReportBuildPipeline(t *testing.T) {
	ts := testServer(t)
	req := client.QueryRequest{Ops: []client.Op{{Op: "sample", ID: "gm:n=8:a=0.5", Count: 1}}}
	if hr, out := doReq(t, ts.URL, http.MethodPost, "/v2/query", req); hr.StatusCode != http.StatusOK {
		t.Fatalf("sample: %d %v", hr.StatusCode, out)
	}
	code, st := getJSON(t, ts, "/v2/stats")
	if code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	for _, key := range []string{"build_queue_depth", "builds_in_flight", "builds", "build_failures", "build_cancels", "build_seconds"} {
		if _, ok := st[key]; !ok {
			t.Errorf("stats missing %q: %v", key, st)
		}
	}
	if st["builds"].(float64) < 1 {
		t.Errorf("builds = %v after a successful sample", st["builds"])
	}
}

// ---- v2 surface ----

// TestV2MechanismLifecycle drives PUT → GET → list end to end and pins
// the resource-identity semantics: equivalent specs share one resource.
func TestV2MechanismLifecycle(t *testing.T) {
	ts := testServer(t)
	const id = "lp:n=8:a=0.7:WH+S:p=0"

	resp, doc := doReq(t, ts.URL, http.MethodPut, "/v2/mechanisms/"+url.PathEscape(id), nil)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT status %d: %v", resp.StatusCode, doc)
	}
	if doc["id"] != id {
		t.Errorf("PUT doc id = %v, want %v", doc["id"], id)
	}
	ready := waitReadyV2(t, ts.URL, id)
	mech, ok := ready["mechanism"].(map[string]any)
	if !ok {
		t.Fatalf("ready doc missing mechanism detail: %v", ready)
	}
	if mech["name"] == nil || mech["rule"] == nil || mech["properties"] == nil {
		t.Errorf("mechanism detail incomplete: %v", mech)
	}
	if spec, ok := ready["spec"].(map[string]any); !ok || spec["mechanism"] != "lp" {
		t.Errorf("ready doc spec = %v, want embedded canonical spec", ready["spec"])
	}

	// Re-PUT on a ready mechanism: idempotent 200 with the full doc.
	resp, doc = doReq(t, ts.URL, http.MethodPut, "/v2/mechanisms/"+url.PathEscape(id), nil)
	if resp.StatusCode != http.StatusOK || doc["mechanism"] == nil {
		t.Errorf("re-PUT = %d %v, want 200 with mechanism detail", resp.StatusCode, doc)
	}

	// An equivalent non-canonical ID (WH+S unclosed order, extra float
	// precision) resolves to the same resource, already ready.
	resp, doc = doReq(t, ts.URL, http.MethodGet, "/v2/mechanisms/"+url.PathEscape("lp:n=8:a=0.70:S+WH:p=0"), nil)
	if resp.StatusCode != http.StatusOK || doc["state"] != "ready" {
		t.Errorf("equivalent ID GET = %d %v, want the ready resource", resp.StatusCode, doc)
	}
	if doc["id"] != id {
		t.Errorf("equivalent ID resolves to %v, want canonical %v", doc["id"], id)
	}

	// The listing shows exactly one resource.
	resp, list := doReq(t, ts.URL, http.MethodGet, "/v2/mechanisms", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", resp.StatusCode)
	}
	items, ok := list["mechanisms"].([]any)
	if !ok || len(items) != 1 {
		t.Fatalf("list = %v, want exactly 1 mechanism", list)
	}
}

// TestV2QueryMultiplexed pins the multiplexed protocol: heterogeneous
// ops against two mechanisms in one round trip, with a per-op error
// that does not poison the batch.
func TestV2QueryMultiplexed(t *testing.T) {
	ts := testServer(t)
	seed := uint64(99)
	req := client.QueryRequest{Ops: []client.Op{
		{Op: "sample", ID: "gm:n=10:a=0.6", Count: 4},
		{Op: "batch", ID: "em:n=8:a=0.8", Counts: []int{0, 4, 8}, Seed: &seed},
		{Op: "estimate", ID: "gm:n=10:a=0.6", Outputs: []int{4, 4, 4}},
		{Op: "sample", ID: "gm:n=10:a=0.6", Count: 99}, // out of range: per-op error
	}}
	resp, out := doReq(t, ts.URL, http.MethodPost, "/v2/query", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %v", resp.StatusCode, out)
	}
	results, ok := out["results"].([]any)
	if !ok || len(results) != 4 {
		t.Fatalf("results = %v, want 4 positional entries", out)
	}
	r0 := results[0].(map[string]any)
	if v, ok := r0["output"].(float64); !ok || v < 0 || v > 10 {
		t.Errorf("sample result = %v", r0)
	}
	r1 := results[1].(map[string]any)
	if outs, ok := r1["outputs"].([]any); !ok || len(outs) != 3 {
		t.Errorf("batch result = %v", r1)
	}
	r2 := results[2].(map[string]any)
	if r2["sum"] == nil || r2["unbiased"] != true {
		t.Errorf("estimate result = %v", r2)
	}
	r3 := results[3].(map[string]any)
	errObj, ok := r3["error"].(map[string]any)
	if !ok || errObj["code"] != "spec_invalid" {
		t.Errorf("out-of-range op error = %v, want code spec_invalid", r3)
	}

	// Request-level failures: empty and oversized batches.
	resp, out = doReq(t, ts.URL, http.MethodPost, "/v2/query", client.QueryRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty ops status %d: %v", resp.StatusCode, out)
	}
	big := client.QueryRequest{Ops: make([]client.Op, client.MaxQueryOps+1)}
	for i := range big.Ops {
		big.Ops[i] = client.Op{Op: "sample", ID: "gm:n=10:a=0.6", Count: 1}
	}
	resp, out = doReq(t, ts.URL, http.MethodPost, "/v2/query", big)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch status %d", resp.StatusCode)
	}
	if env, ok := out["error"].(map[string]any); !ok || env["code"] != "over_limit" {
		t.Errorf("oversized batch error = %v, want code over_limit", out)
	}
}

// TestV2CanceledBuildStatusDoc pins that a build cut short surfaces in
// the resource document as a failed state carrying the build_canceled
// taxonomy error — the wire form WaitReady turns into a typed error.
func TestV2CanceledBuildStatusDoc(t *testing.T) {
	svc := service.New(service.Config{Capacity: 32, Seed: 7})
	ts := httptest.NewServer(NewMux(svc))
	t.Cleanup(ts.Close)

	const id = "lp-minimax:n=128:a=0.9:none:p=0"
	resp, doc := doReq(t, ts.URL, http.MethodPut, "/v2/mechanisms/"+url.PathEscape(id), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("PUT slow build: %d %v", resp.StatusCode, doc)
	}
	// Cut the build short; status reads keep working after Close.
	svc.Close()
	resp, doc = doReq(t, ts.URL, http.MethodGet, "/v2/mechanisms/"+url.PathEscape(id), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after cancel: %d %v", resp.StatusCode, doc)
	}
	if doc["state"] != "failed" {
		t.Fatalf("state = %v, want failed: %v", doc["state"], doc)
	}
	env, ok := doc["error"].(map[string]any)
	if !ok || env["code"] != "build_canceled" {
		t.Errorf("failed doc error = %v, want code build_canceled", doc["error"])
	}
}

// TestTaxonomyMapping pins the error-class → wire-code table at the
// unit level, including classes hard to reach end-to-end (a
// deterministic build failure needs an infeasible LP).
func TestTaxonomyMapping(t *testing.T) {
	cases := []struct {
		err    error
		code   client.Code
		status int
	}{
		{service.ErrNotAdmitted, client.CodeNotAdmitted, http.StatusNotFound},
		{fmt.Errorf("x: %w", service.ErrOverLimit), client.CodeOverLimit, http.StatusBadRequest},
		{fmt.Errorf("x: %w", service.ErrSpecInvalid), client.CodeSpecInvalid, http.StatusBadRequest},
		{service.ErrBuildAbandoned, client.CodeBuildCanceled, http.StatusServiceUnavailable},
		{context.Canceled, client.CodeBuildCanceled, http.StatusServiceUnavailable},
		{fmt.Errorf("x: %w", service.ErrBuildFailed), client.CodeBuildFailed, http.StatusUnprocessableEntity},
		{errors.New("anything else"), client.CodeSpecInvalid, http.StatusBadRequest},
	}
	for _, c := range cases {
		code, status := taxonomy(c.err)
		if code != c.code || status != c.status {
			t.Errorf("taxonomy(%v) = %v/%d, want %v/%d", c.err, code, status, c.code, c.status)
		}
	}

	// A failed status snapshot carries the build_failed envelope (the
	// service tags deterministic failures in Entry.Info).
	doc := statusDoc(service.BuildInfo{
		State: service.BuildFailed,
		Err:   fmt.Errorf("lp wrapped: %w", service.ErrBuildFailed),
	})
	if doc.Error == nil || doc.Error.Code != client.CodeBuildFailed {
		t.Errorf("failed statusDoc error = %+v, want build_failed", doc.Error)
	}
}

// TestV2ErrorTaxonomy pins code + HTTP status for each failure class
// reachable without a slow build.
func TestV2ErrorTaxonomy(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		method, path string
		status       int
		code         string
	}{
		{http.MethodGet, "/v2/mechanisms/gm:n=8:a=0.5", http.StatusNotFound, "not_admitted"},
		{http.MethodGet, "/v2/mechanisms/bogus:n=8", http.StatusBadRequest, "spec_invalid"},
		{http.MethodPut, "/v2/mechanisms/gm:n=8", http.StatusBadRequest, "spec_invalid"},
		{http.MethodPut, "/v2/mechanisms/lp:n=4000:a=0.5:CM:p=0", http.StatusBadRequest, "over_limit"},
		{http.MethodPut, "/v2/mechanisms/gm:n=9999:a=0.5", http.StatusBadRequest, "over_limit"},
	}
	for _, c := range cases {
		resp, out := doReq(t, ts.URL, c.method, c.path, nil)
		if resp.StatusCode != c.status {
			t.Errorf("%s %s: status %d, want %d (%v)", c.method, c.path, resp.StatusCode, c.status, out)
			continue
		}
		env, ok := out["error"].(map[string]any)
		if !ok {
			t.Errorf("%s %s: no error envelope: %v", c.method, c.path, out)
			continue
		}
		if env["code"] != c.code {
			t.Errorf("%s %s: code %v, want %v", c.method, c.path, env["code"], c.code)
		}
		if env["message"] == nil {
			t.Errorf("%s %s: envelope missing message", c.method, c.path)
		}
	}
}

// TestOpScratchSpecCache pins the spec cache every query op parses
// through: a scratch naming one mechanism never builds its map (the
// buffered fan-out gives each op a fresh scratch), a stream alternating
// between mechanisms serves every repeat without allocating, and a
// parse error caches nothing.
func TestOpScratchSpecCache(t *testing.T) {
	parse := func(id string) service.Spec {
		var s service.Spec
		if err := s.UnmarshalText([]byte(id)); err != nil {
			t.Fatal(err)
		}
		return s
	}
	var sc opScratch
	for i := 0; i < 3; i++ {
		if s, err := sc.spec("gm:n=8:a=0.5"); err != nil || s != parse("gm:n=8:a=0.5") {
			t.Fatalf("spec = %+v, %v", s, err)
		}
	}
	if sc.specs != nil {
		t.Fatal("a scratch naming one mechanism built its spec map")
	}
	ids := []string{"gm:n=8:a=0.5", "em:n=4:a=0.5", "gm:n=8:a=0.5", "um:n=2", "em:n=4:a=0.5"}
	for _, id := range ids {
		if s, err := sc.spec(id); err != nil || s != parse(id) {
			t.Fatalf("spec(%q) = %+v, %v", id, s, err)
		}
	}
	if _, err := sc.spec("gm:n=oops"); err == nil {
		t.Fatal("malformed id parsed")
	}
	if s, err := sc.spec("um:n=2"); err != nil || s != parse("um:n=2") {
		t.Fatalf("spec after a parse error = %+v, %v", s, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, id := range ids {
			if _, err := sc.spec(id); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("cached spec lookups allocated %v times per run", allocs)
	}
}
