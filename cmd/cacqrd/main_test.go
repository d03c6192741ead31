package main

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	cacqr "cacqr"
)

func newTestDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := cacqr.NewServer(cacqr.ServerOptions{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(buildMux(srv, nil, 1<<24, true))
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// /stats must carry the admission and latency fields — with
// "latencies" an empty JSON object (not null) on a fresh daemon, and a
// per-key {"count","p50","p95","p99"} summary once traffic has flowed.
func TestStatsJSONShape(t *testing.T) {
	ts := newTestDaemon(t)

	st := getJSON(t, ts.URL+"/stats")
	for _, field := range []string{
		"requests", "hits", "misses", "evictions", "entries", "planned",
		"batched", "in_flight_ranks", "rank_budget", "hit_rate",
		"pending", "max_pending", "overloaded", "latencies",
	} {
		if _, ok := st[field]; !ok {
			t.Fatalf("/stats missing %q: %v", field, st)
		}
	}
	lat, ok := st["latencies"].(map[string]any)
	if !ok {
		t.Fatalf(`fresh "latencies" = %v (%T), want empty object`, st["latencies"], st["latencies"])
	}
	if len(lat) != 0 {
		t.Fatalf("fresh daemon already has latency keys: %v", lat)
	}

	// Drive one factorization, then the key's summary must appear.
	body, _ := json.Marshal(map[string]any{
		"m": 256, "n": 16, "procs": 8, "condest": 10,
		"gen": map[string]any{"seed": 7},
	})
	resp, err := http.Post(ts.URL+"/v1/factorize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("factorize status %d", resp.StatusCode)
	}

	st = getJSON(t, ts.URL+"/stats")
	lat, _ = st["latencies"].(map[string]any)
	if len(lat) != 1 {
		t.Fatalf("after one request, latencies has %d keys: %v", len(lat), lat)
	}
	for _, summary := range lat {
		m, ok := summary.(map[string]any)
		if !ok {
			t.Fatalf("latency summary = %v (%T)", summary, summary)
		}
		for _, q := range []string{"count", "p50", "p95", "p99"} {
			if _, ok := m[q]; !ok {
				t.Fatalf("latency summary missing %q: %v", q, m)
			}
		}
		if m["count"].(float64) != 1 {
			t.Fatalf("count = %v, want 1", m["count"])
		}
		if m["p50"].(float64) <= 0 || m["p50"].(float64) != m["p99"].(float64) {
			t.Fatalf("single-sample quantiles inconsistent: %v", m)
		}
	}
	if st["max_pending"].(float64) <= 0 {
		t.Fatalf("max_pending = %v, want the resolved default bound", st["max_pending"])
	}
}

// An overloaded daemon sheds load with 503, not a hung connection.
func TestOverloadedMapsTo503(t *testing.T) {
	// MaxPending 1 plus a request that holds it: an in-process streamed
	// factorization of a 2²⁴×8 generator matrix under an 8 MiB budget
	// runs for seconds, a deterministic way to saturate the daemon from a
	// test. Cancelling it frees the slot at its next panel.
	srv, err := cacqr.NewServer(cacqr.ServerOptions{Procs: 8, MaxPending: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(buildMux(srv, nil, 1<<24, true))
	t.Cleanup(ts.Close)

	src, err := cacqr.SourceFromGenerator(1<<24, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := srv.SubmitStreamCtx(ctx, cacqr.StreamRequest{Source: src, MemBudget: 8 << 20})
		done <- err
	}()
	deadline := time.After(10 * time.Second)
	for srv.Stats().Pending == 0 {
		select {
		case <-deadline:
			t.Fatal("holding request never admitted")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	body, _ := json.Marshal(map[string]any{
		"m": 64, "n": 4, "gen": map[string]any{"seed": 2},
	})
	resp, err := http.Post(ts.URL+"/v1/factorize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated daemon returned %d, want 503", resp.StatusCode)
	}

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("held request: err = %v, want context.Canceled", err)
	}
	if st := srv.Stats(); st.Pending != 0 {
		t.Fatalf("pending = %d after the held request was cancelled", st.Pending)
	}
}

func newTracedDaemon(t *testing.T) (*httptest.Server, *cacqr.Tracer) {
	t.Helper()
	tracer := cacqr.NewTracer(cacqr.TracerOptions{})
	srv, err := cacqr.NewServer(cacqr.ServerOptions{
		Procs:   8,
		Options: cacqr.Options{Tracer: tracer},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	registerServeMetrics(tracer.Metrics(), srv)
	ts := httptest.NewServer(buildMux(srv, tracer, 1<<24, true))
	t.Cleanup(ts.Close)
	return ts, tracer
}

func postFactorize(t *testing.T, ts *httptest.Server, body map[string]any) (*http.Response, map[string]any) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(ts.URL+"/v1/factorize", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// One traced request end to end through the daemon: the response names
// its trace, /v1/trace/{id} returns the span tree, and /metrics carries
// the aggregated series in Prometheus text format.
func TestTraceAndMetricsEndpoints(t *testing.T) {
	ts, _ := newTracedDaemon(t)

	resp, out := postFactorize(t, ts, map[string]any{
		"m": 512, "n": 32, "procs": 8, "condest": 10,
		"gen": map[string]any{"seed": 3},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("factorize status %d: %v", resp.StatusCode, out)
	}
	id, _ := out["trace_id"].(string)
	if id == "" {
		t.Fatalf("traced daemon response has no trace_id: %v", out)
	}

	// The span tree must be retrievable by that id.
	trace := getJSON(t, ts.URL+"/v1/trace/"+id)
	if trace["id"] != id {
		t.Fatalf("trace id = %v, want %s", trace["id"], id)
	}
	root, ok := trace["root"].(map[string]any)
	if !ok || root["name"] != "factorize" {
		t.Fatalf("trace root = %v", trace["root"])
	}
	kids, _ := root["children"].([]any)
	if len(kids) == 0 {
		t.Fatal("trace root has no stage children")
	}

	// An unknown id is a JSON 404, not a panic or empty 200.
	r404, err := http.Get(ts.URL + "/v1/trace/no-such-trace")
	if err != nil {
		t.Fatal(err)
	}
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace id returned %d, want 404", r404.StatusCode)
	}

	// /metrics: aggregated tracer series plus the serve gauges.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	text := string(raw)
	for _, want := range []string{
		"# TYPE cacqr_stage_seconds summary",
		`cacqr_stage_seconds{stage="execute"`,
		"cacqr_requests_total{",
		`outcome="ok"`,
		"cacqr_request_trace_seconds_count 1",
		"cacqr_serve_requests_total 1",
		"cacqr_plan_cache_misses_total 1",
		"# TYPE cacqr_serve_pending gauge",
		"cacqr_plan_cache_entries 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}
}

// The daemon mints a request id when the client sends none and echoes
// the client's own when it does.
func TestRequestIDHeader(t *testing.T) {
	ts, _ := newTracedDaemon(t)

	resp, _ := postFactorize(t, ts, map[string]any{
		"m": 64, "n": 4, "gen": map[string]any{"seed": 1},
	})
	if got := resp.Header.Get("X-Request-Id"); got == "" {
		t.Fatal("no X-Request-Id on response")
	}

	b, _ := json.Marshal(map[string]any{"m": 64, "n": 4, "gen": map[string]any{"seed": 1}})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/factorize", bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "caller-abc-123")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); got != "caller-abc-123" {
		t.Fatalf("X-Request-Id = %q, want the caller's id echoed", got)
	}
}

// /stats must fold in the new accounting fields and the metrics
// snapshot when tracing is on.
func TestStatsCarriesMetricsSnapshot(t *testing.T) {
	ts, _ := newTracedDaemon(t)
	postFactorize(t, ts, map[string]any{
		"m": 256, "n": 16, "condest": 10, "gen": map[string]any{"seed": 9},
	})

	st := getJSON(t, ts.URL+"/stats")
	for _, field := range []string{"lookups", "leads", "metrics"} {
		if _, ok := st[field]; !ok {
			t.Fatalf("/stats missing %q: %v", field, st)
		}
	}
	if st["lookups"].(float64) != st["hits"].(float64)+st["misses"].(float64) {
		t.Fatalf("stats invariant broken: %v", st)
	}
	metrics, ok := st["metrics"].(map[string]any)
	if !ok {
		t.Fatalf(`/stats "metrics" = %T`, st["metrics"])
	}
	found := false
	for k := range metrics {
		if strings.HasPrefix(k, "cacqr_requests_total") {
			found = true
		}
	}
	if !found {
		t.Fatalf("metrics snapshot lacks cacqr_requests_total series: %v", metrics)
	}
}

// The body cap must always stand: shape-derived when -max-elems bounds
// the resident set, the 1 GiB default when the daemon is "unlimited".
// Before the fix, -max-elems 0 installed no MaxBytesReader at all.
func TestBodyCapAlwaysInstalled(t *testing.T) {
	if got := bodyCap(1 << 24); got != 32*(1<<24)+1<<20 {
		t.Fatalf("bounded cap = %d", got)
	}
	if got := bodyCap(0); got != defaultBodyCap {
		t.Fatalf("unlimited daemon cap = %d, want defaultBodyCap %d", got, defaultBodyCap)
	}
}

// A body past the cap is a clean 413, not a generic 400 or a decoder
// left to allocate without bound.
func TestOversizedBodyIs413(t *testing.T) {
	srv, err := cacqr.NewServer(cacqr.ServerOptions{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	const maxElems = 4 // cap = 128 B + 1 MiB
	ts := httptest.NewServer(buildMux(srv, nil, maxElems, true))
	t.Cleanup(ts.Close)

	// Leading whitespace forces the decoder to read through the whole
	// body before the value; the cap must trip first.
	big := bytes.Repeat([]byte(" "), int(bodyCap(maxElems))+4096)
	copy(big[len(big)-40:], `{"m":2,"n":2,"gen":{"seed":1}}`)
	resp, err := http.Post(ts.URL+"/v1/factorize", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body returned %d, want 413", resp.StatusCode)
	}
}

// Non-finite and negative gen.cond are 400s. Before the fix they
// compared false against "> 1" and silently produced an unconditioned
// random matrix the caller never asked for.
func TestGenCondValidation(t *testing.T) {
	for _, cond := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -3} {
		if _, err := buildMatrix(request{M: 64, N: 4, Gen: &genSpec{Seed: 1, Cond: cond}}, 1<<24); err == nil {
			t.Errorf("gen.cond %g accepted", cond)
		}
	}
	// 0 (omitted) and targets ≥ 1 stay valid.
	for _, cond := range []float64{0, 1, 1e6} {
		if _, err := buildMatrix(request{M: 64, N: 4, Gen: &genSpec{Seed: 1, Cond: cond}}, 1<<24); err != nil {
			t.Errorf("gen.cond %g rejected: %v", cond, err)
		}
	}

	// A wide shape with a target is an error too: the exact-κ generator
	// used to panic on it.
	if _, err := buildMatrix(request{M: 1, N: 2, Gen: &genSpec{Cond: 10}}, 1<<24); err == nil {
		t.Error("gen.cond on a 1x2 shape accepted")
	}

	// Over the wire: a negative cond is a 400 (NaN is not JSON).
	ts := newTestDaemon(t)
	resp, out := postFactorize(t, ts, map[string]any{
		"m": 64, "n": 4, "gen": map[string]any{"seed": 1, "cond": -5},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative cond returned %d (%v), want 400", resp.StatusCode, out)
	}
}

// An over--max-elems generator request is served out-of-core: the
// daemon streams it under a budget of maxElems elements instead of
// rejecting it, and the answer matches the in-core factorization.
func TestOverLimitGenStreams(t *testing.T) {
	srv, err := cacqr.NewServer(cacqr.ServerOptions{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	const maxElems = 1 << 16
	ts := httptest.NewServer(buildMux(srv, nil, maxElems, true))
	t.Cleanup(ts.Close)

	const m, n, seed = 16384, 8, 42 // m·n = 2·maxElems
	resp, out := postFactorize(t, ts, map[string]any{
		"m": m, "n": n, "gen": map[string]any{"seed": seed}, "want_factors": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("over-limit gen returned %d: %v", resp.StatusCode, out)
	}
	if out["streamed"] != true {
		t.Fatalf("response not marked streamed: %v", out)
	}
	if v, _ := out["variant"].(string); v != string(cacqr.VariantStreamCQR2) {
		t.Fatalf("variant = %q, want stream-cqr2", v)
	}
	if p, _ := out["panels"].(float64); p < 2 {
		t.Fatalf("panels = %v, want a real panel schedule", out["panels"])
	}
	resident, _ := out["resident_bytes"].(float64)
	if resident <= 0 || int64(resident) > 8*maxElems {
		t.Fatalf("resident_bytes = %v, want within the %d B budget", resident, 8*maxElems)
	}
	if _, hasQ := out["q"]; hasQ {
		t.Fatal("streamed response returned a Q")
	}
	rVals, _ := out["r"].([]any)
	if len(rVals) != n*n {
		t.Fatalf("streamed R has %d values, want %d", len(rVals), n*n)
	}
	_, rRef, err := cacqr.CholeskyQR2(cacqr.RandomMatrix(m, n, seed))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range rVals {
		if d := math.Abs(v.(float64) - rRef.Data[i]); d > 1e-13*float64(m) {
			t.Fatalf("R[%d] off by %g", i, d)
		}
	}

	// Same key again: the stream plan must come from the cache.
	resp2, out2 := postFactorize(t, ts, map[string]any{
		"m": m, "n": n, "gen": map[string]any{"seed": seed},
	})
	if resp2.StatusCode != http.StatusOK || out2["plan_cache_hit"] != true {
		t.Fatalf("repeat streamed request: status %d, cache hit %v", resp2.StatusCode, out2["plan_cache_hit"])
	}
}

// The streaming route has hard edges that stay 400s: inline data past
// the bound (the body IS the matrix), solves (need a pass over Q), and
// exact-κ generation (materializes the whole matrix).
func TestOverLimitRejections(t *testing.T) {
	srv, err := cacqr.NewServer(cacqr.ServerOptions{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	const maxElems = 1 << 10
	mux := buildMux(srv, nil, maxElems, true)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	post := func(path string, body map[string]any) int {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	over := map[string]any{"m": 4096, "n": 8} // 32768 > 1024
	data := make([]float64, 64)               // wrong length is fine: shape check fires first
	if code := post("/v1/factorize", merge(over, "data", data)); code != http.StatusBadRequest {
		t.Errorf("over-limit inline data: %d, want 400", code)
	}
	if code := post("/v1/solve", merge(over, "gen", map[string]any{"seed": 1}, "b", make([]float64, 4096))); code != http.StatusBadRequest {
		t.Errorf("over-limit solve: %d, want 400", code)
	}
	if code := post("/v1/factorize", merge(over, "gen", map[string]any{"seed": 1, "cond": 1e8})); code != http.StatusBadRequest {
		t.Errorf("over-limit exact-κ gen: %d, want 400", code)
	}
	if code := post("/v1/factorize", merge(over, "gen", map[string]any{"seed": 1, "cond": -2})); code != http.StatusBadRequest {
		t.Errorf("over-limit negative cond: %d, want 400", code)
	}
}

func merge(base map[string]any, kv ...any) map[string]any {
	out := map[string]any{}
	for k, v := range base {
		out[k] = v
	}
	for i := 0; i < len(kv); i += 2 {
		out[kv[i].(string)] = kv[i+1]
	}
	return out
}
