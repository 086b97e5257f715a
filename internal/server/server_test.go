package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/pipeline"
	"flexsp/internal/planner"
	"flexsp/internal/solver"
)

// testCoeffs is a small, fast cluster: 8 A100s, GPT-7B.
func testCoeffs() costmodel.Coeffs {
	return costmodel.Profile(costmodel.GPT7B, cluster.A100Cluster(8))
}

func testSolver() *solver.Solver {
	return solver.New(planner.New(testCoeffs()))
}

// pipelineStrategy serves the pipeline strategy from a joint PP×SP planner,
// standing in for the facade's registry entry.
func pipelineStrategy(jp *pipeline.Planner) StrategyFunc {
	return func(ctx context.Context, spec PlanSpec) (PlanEnvelope, error) {
		res, err := jp.SolveContext(ctx, spec.Lengths)
		if err != nil {
			return PlanEnvelope{}, err
		}
		pr := EncodePipelined(res)
		return PlanEnvelope{Version: WireVersion, Strategy: "pipeline", EstTime: pr.EstTime,
			SolveWallSeconds: pr.SolveWallSeconds, Pipelined: &pr}, nil
	}
}

// testStrategies is the strategy table of a test daemon on testCoeffs.
func testStrategies() map[string]StrategyFunc {
	return map[string]StrategyFunc{"pipeline": pipelineStrategy(pipeline.NewPlanner(testCoeffs()))}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Solver == nil {
		cfg.Solver = testSolver()
	}
	if cfg.Strategies == nil {
		cfg.Strategies = testStrategies()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// postPlan posts one request to POST /v2/plan and returns the response with
// its raw body.
func postPlan(t *testing.T, url string, req PlanRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v2/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

var testBatch = []int{1024, 2048, 3072, 4096, 6144, 8192, 12288, 16384}

// otherBatch returns a batch with a distinct signature from testBatch.
func otherBatch(salt int) []int {
	out := make([]int, len(testBatch))
	for i, l := range testBatch {
		out[i] = l + 512*(salt+1)
	}
	return out
}

// TestSolveMatchesInProcess pins the acceptance criterion: plans served over
// HTTP are byte-identical to encoding an in-process Solve of the same batch.
func TestSolveMatchesInProcess(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postPlan(t, ts.URL, PlanRequest{Lengths: testBatch})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var env PlanEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Flat == nil {
		t.Fatalf("envelope has no flat section: %s", body)
	}
	got := *env.Flat

	res, err := testSolver().Solve(testBatch)
	if err != nil {
		t.Fatal(err)
	}
	wantMicro, err := json.Marshal(EncodePlans(res.Plans))
	if err != nil {
		t.Fatal(err)
	}
	gotMicro, err := json.Marshal(got.Micro)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotMicro, wantMicro) {
		t.Fatalf("HTTP plans differ from in-process solve:\n got %s\nwant %s", gotMicro, wantMicro)
	}
	if got.M != res.M || got.MMin != res.MMin || got.EstTime != res.Time {
		t.Fatalf("header fields differ: got m=%d mMin=%d est=%v, want m=%d mMin=%d est=%v",
			got.M, got.MMin, got.EstTime, res.M, res.MMin, res.Time)
	}

	// The wire roundtrip reproduces the in-process plans exactly.
	decoded := got.Plans()
	if !reflect.DeepEqual(decoded, res.Plans) {
		t.Fatal("DecodePlans(EncodePlans(plans)) != plans")
	}
	for i, mp := range decoded {
		if err := mp.Validate(testCoeffs().Pricing(), planLens(res.Plans[i])); err != nil {
			t.Fatalf("decoded plan %d invalid: %v", i, err)
		}
	}
}

// planLens flattens a plan's assigned lengths.
func planLens(p planner.MicroPlan) []int {
	var out []int
	for _, g := range p.Groups {
		out = append(out, g.Lens...)
	}
	return out
}

// TestCoalescing pins the batching window: concurrent identical requests
// coalesce into one solver pass and receive byte-identical responses.
func TestCoalescing(t *testing.T) {
	srv, ts := newTestServer(t, Config{BatchWindow: 200 * time.Millisecond})
	const n = 8
	bodies := make([][]byte, n)
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postPlan(t, ts.URL, PlanRequest{Lengths: testBatch})
			statuses[i], bodies[i] = resp.StatusCode, body
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs from request 0:\n%s\n%s", i, bodies[i], bodies[0])
		}
	}
	m := srv.Metrics()
	if m.Requests != n {
		t.Fatalf("requests = %d, want %d", m.Requests, n)
	}
	if m.Coalesced == 0 {
		t.Fatal("no requests coalesced inside a 200ms window")
	}
	if m.Solves >= n {
		t.Fatalf("solves = %d, want < %d (coalescing saves passes)", m.Solves, n)
	}
}

// TestQueueOverflow pins admission control: with one admission slot held by
// a request waiting in its batching window, the next request is refused
// with 429 and an error body.
func TestQueueOverflow(t *testing.T) {
	srv, ts := newTestServer(t, Config{QueueLimit: 1, BatchWindow: 400 * time.Millisecond})
	done := make(chan int, 1)
	go func() {
		resp, _ := postPlan(t, ts.URL, PlanRequest{Lengths: testBatch})
		done <- resp.StatusCode
	}()
	waitAdmitted(t, srv, 1)

	resp, body := postPlan(t, ts.URL, PlanRequest{Lengths: otherBatch(0)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("429 body %q is not an error response (%v)", body, err)
	}
	if got := <-done; got != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", got)
	}
	if m := srv.Metrics(); m.Rejected == 0 {
		t.Fatal("rejected counter not incremented")
	}
}

// TestTenantLimit pins per-tenant admission: one tenant cannot occupy more
// than its concurrency share even when the queue has room.
func TestTenantLimit(t *testing.T) {
	srv, ts := newTestServer(t, Config{QueueLimit: 8, TenantLimit: 1, BatchWindow: 400 * time.Millisecond})
	done := make(chan int, 1)
	go func() {
		resp, _ := postPlan(t, ts.URL, PlanRequest{Lengths: testBatch, Tenant: "a"})
		done <- resp.StatusCode
	}()
	waitAdmitted(t, srv, 1)

	resp, body := postPlan(t, ts.URL, PlanRequest{Lengths: otherBatch(1), Tenant: "a"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("same-tenant status %d, want 429: %s", resp.StatusCode, body)
	}
	// A different tenant still gets in.
	resp2, body2 := postPlan(t, ts.URL, PlanRequest{Lengths: otherBatch(2), Tenant: "b"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("other-tenant status %d, want 200: %s", resp2.StatusCode, body2)
	}
	if got := <-done; got != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", got)
	}
}

// waitAdmitted blocks until the server has n admitted requests.
func waitAdmitted(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.sem) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d admitted requests", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGracefulDrain pins the SIGTERM path: draining refuses new work with
// 503 and flips /healthz, while the in-flight solve completes with a full
// response.
func TestGracefulDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{BatchWindow: 300 * time.Millisecond})

	type result struct {
		status int
		body   []byte
	}
	done := make(chan result, 1)
	go func() {
		resp, body := postPlan(t, ts.URL, PlanRequest{Lengths: testBatch})
		done <- result{resp.StatusCode, body}
	}()
	waitAdmitted(t, srv, 1)
	srv.Drain()

	resp, body := postPlan(t, ts.URL, PlanRequest{Lengths: otherBatch(3)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain solve status %d, want 503: %s", resp.StatusCode, body)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz status %d, want 503", hr.StatusCode)
	}

	r := <-done
	if r.status != http.StatusOK {
		t.Fatalf("in-flight solve finished with %d, want 200: %s", r.status, r.body)
	}
	var got PlanEnvelope
	if err := json.Unmarshal(r.body, &got); err != nil || got.Flat == nil || len(got.Flat.Micro) == 0 {
		t.Fatalf("in-flight solve returned incomplete body %q (%v)", r.body, err)
	}
}

// TestBatchWindowRace hammers the batching window from many goroutines over
// a few signatures; run with -race it pins the window's synchronization.
func TestBatchWindowRace(t *testing.T) {
	srv, ts := newTestServer(t, Config{QueueLimit: 256, TenantLimit: 256, BatchWindow: time.Millisecond})
	const perSig, sigs = 16, 4
	var wg sync.WaitGroup
	errs := make(chan string, perSig*sigs)
	for s := 0; s < sigs; s++ {
		for i := 0; i < perSig; i++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				resp, body := postPlan(t, ts.URL, PlanRequest{Lengths: otherBatch(s)})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("status %d: %s", resp.StatusCode, body)
				}
			}(s)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	m := srv.Metrics()
	if m.Requests != perSig*sigs {
		t.Fatalf("requests = %d, want %d", m.Requests, perSig*sigs)
	}
	if m.Solves+m.Coalesced < int64(perSig*sigs) {
		t.Fatalf("solves %d + coalesced %d < requests %d", m.Solves, m.Coalesced, m.Requests)
	}
}

// TestPassCanceledWhenClientsGone pins the pass-context plumbing: once
// every member of a pass has disconnected, the pass context cancels and the
// solver pass stops instead of burning workers on an unread response.
func TestPassCanceledWhenClientsGone(t *testing.T) {
	release := make(chan struct{})
	b := newBatcher(0, func(ctx context.Context, job planJob) ([]byte, int) {
		// Stand-in for a long solve with cancellation points: block until
		// the pass context is canceled.
		select {
		case <-ctx.Done():
			return []byte("canceled"), statusClientGone
		case <-release:
			return []byte("ok"), http.StatusOK
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel() // the only client disconnects mid-solve
	}()
	body, status, _, _, err := b.do(ctx, planJob{lens: testBatch})
	if err != nil {
		t.Fatalf("opener returned early: %v", err)
	}
	if status != statusClientGone || string(body) != "canceled" {
		t.Fatalf("got status %d body %q, want %d %q", status, body, statusClientGone, "canceled")
	}
	close(release)

	// End to end: SolveContext's canceled counter moves when the sole HTTP
	// client disconnects during its batching window.
	srv, ts := newTestServer(t, Config{BatchWindow: -1})
	reqBody, _ := json.Marshal(PlanRequest{Lengths: testBatch})
	cctx, ccancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer ccancel()
	req, _ := http.NewRequestWithContext(cctx, http.MethodPost, ts.URL+"/v2/plan", bytes.NewReader(reqBody))
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		resp.Body.Close() // the solve may win the race; that is fine too
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().Solves == 0 {
		if time.Now().After(deadline) {
			t.Fatal("solver pass never ran")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelined pins the joint PP×SP strategy.
func TestPipelined(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, out := postPlan(t, ts.URL, PlanRequest{Strategy: "pipeline", Lengths: testBatch})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	var env PlanEnvelope
	if err := json.Unmarshal(out, &env); err != nil {
		t.Fatal(err)
	}
	if env.Pipelined == nil {
		t.Fatalf("envelope has no pipelined section: %s", out)
	}
	got := *env.Pipelined
	if got.PP < 1 || len(got.Stages) != got.PP {
		t.Fatalf("pp=%d stages=%d inconsistent", got.PP, len(got.Stages))
	}
	if len(got.Plans) == 0 {
		t.Fatal("no plans returned")
	}
}

// TestPipelinedUnconfigured pins the 501 on a solve-only daemon.
func TestPipelinedUnconfigured(t *testing.T) {
	s, err := New(Config{Solver: testSolver()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, body := postPlan(t, ts.URL, PlanRequest{Strategy: "pipeline", Lengths: testBatch})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status %d, want 501: %s", resp.StatusCode, body)
	}
}

// TestBadRequest pins input validation.
func TestBadRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v2/plan", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	resp2, body := postPlan(t, ts.URL, PlanRequest{Lengths: []int{1024, -5}})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative length: status %d, want 400: %s", resp2.StatusCode, body)
	}
}

// TestMetricsEndpoint pins the /v1/metrics wire format.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postPlan(t, ts.URL, PlanRequest{Lengths: testBatch})
	postPlan(t, ts.URL, PlanRequest{Lengths: testBatch})

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Requests != 2 {
		t.Fatalf("requests = %d, want 2", m.Requests)
	}
	if m.Solves == 0 {
		t.Fatal("no solves recorded")
	}
	// The second identical request hits the plan cache (or coalesces).
	if m.Cache.Hits+m.Cache.Dedups+m.Coalesced == 0 {
		t.Fatal("repeated signature produced no cache hit, dedup, or coalesce")
	}
	if m.LatencyP50Millis <= 0 || m.LatencyP99Millis < m.LatencyP50Millis {
		t.Fatalf("latency percentiles p50=%v p99=%v inconsistent", m.LatencyP50Millis, m.LatencyP99Millis)
	}
	if m.QueueLimit == 0 || m.UptimeSeconds <= 0 {
		t.Fatal("queue limit / uptime missing")
	}
}
