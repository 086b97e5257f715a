package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"flexsp/internal/obs"
	"flexsp/internal/solver"
)

var updateMetricsGolden = flag.Bool("update-metrics-golden", false,
	"rewrite testdata/metrics_v1.golden from the current MetricsResponse encoding")

// TestMetricsJSONGolden pins the /v1/metrics wire format byte for byte: a
// fully populated MetricsResponse must marshal exactly as the checked-in
// golden. Renaming a field, changing its order, or altering a nested snapshot
// type breaks this test before it breaks a dashboard.
func TestMetricsJSONGolden(t *testing.T) {
	m := MetricsResponse{
		UptimeSeconds:    12.5,
		Draining:         true,
		Strategies:       []string{"flexsp", "pipeline"},
		Requests:         100,
		Solves:           40,
		Coalesced:        35,
		Rejected:         10,
		Unavailable:      5,
		Errors:           2,
		QueueDepth:       3,
		QueueLimit:       64,
		LatencyP50Millis: 1.5,
		LatencyP99Millis: 20.25,
		Cache:            solver.CacheStats{Hits: 30, Misses: 10, Dedups: 4, Evictions: 1, Entries: 9},
		CacheHitRate:     0.75,
		Solver:           solver.SolverMetrics{Solves: 40, Canceled: 1, Planned: 80, Deduped: 6},
		Stream: StreamMetrics{Opened: 7, Open: 2, Expired: 1, Speculations: 12,
			Superseded: 4, Reused: 5},
		Topology: TopologyMetrics{Elastic: true, Version: 6, PlanVersion: 5,
			Degraded: true, Nodes: 4, Down: 1, Straggling: 1,
			Events: 8, Replans: 4, ColdReplans: 1, DegradedPlans: 2},
		Calibration: CalibrationMetrics{Version: 3, Source: "sim-grid",
			FittedAtUnix: 1754524800, StalenessSeconds: 3600.5},
	}
	got, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "metrics_v1.golden")
	if *updateMetricsGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-metrics-golden to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("/v1/metrics encoding changed (run with -update-metrics-golden if intended):\n got %s\nwant %s", got, want)
	}
}

// TestPrometheusEndpoint pins the text exposition: GET /metrics parses as
// Prometheus 0.0.4 text and carries the daemon's core series with values that
// match the JSON counters.
func TestPrometheusEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postPlan(t, ts.URL, PlanRequest{Lengths: testBatch})
	postPlan(t, ts.URL, PlanRequest{Lengths: testBatch})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	fams, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("GET /metrics is not valid Prometheus text: %v", err)
	}
	byName := map[string]obs.PromFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}

	core := []string{
		"flexsp_requests_total", "flexsp_solves_total", "flexsp_coalesced_total",
		"flexsp_rejected_total", "flexsp_unavailable_total", "flexsp_errors_total",
		"flexsp_request_latency_seconds", "flexsp_uptime_seconds", "flexsp_draining",
		"flexsp_queue_depth", "flexsp_queue_limit",
		"flexsp_plan_cache_hits_total", "flexsp_plan_cache_misses_total",
		"flexsp_plan_cache_entries",
		"flexsp_solver_solves_total", "flexsp_solver_planned_total",
		"flexsp_traces_recorded_total",
		"flexsp_calibration_version", "flexsp_calibration_staleness_seconds",
	}
	for _, name := range core {
		f, ok := byName[name]
		if !ok {
			t.Errorf("core series %s missing from /metrics", name)
			continue
		}
		if f.Help == "" || f.Type == "" {
			t.Errorf("%s missing HELP/TYPE comments", name)
		}
		if len(f.Samples) == 0 {
			t.Errorf("%s has no samples", name)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	if v := byName["flexsp_requests_total"].Samples[0].Value; v != 2 {
		t.Fatalf("flexsp_requests_total = %v, want 2", v)
	}
	if byName["flexsp_request_latency_seconds"].Type != "histogram" {
		t.Fatalf("latency TYPE = %q, want histogram", byName["flexsp_request_latency_seconds"].Type)
	}
	// The histogram carries the full bucket/sum/count triple and its count
	// agrees with the request counter.
	var count float64
	hasInf := false
	for _, s := range byName["flexsp_request_latency_seconds"].Samples {
		switch s.Name {
		case "flexsp_request_latency_seconds_count":
			count = s.Value
		case "flexsp_request_latency_seconds_bucket":
			if s.Labels["le"] == "+Inf" {
				hasInf = true
			}
		}
	}
	if count != 2 || !hasInf {
		t.Fatalf("latency histogram incomplete: count=%v hasInf=%v", count, hasInf)
	}
	if v := byName["flexsp_queue_limit"].Samples[0].Value; v <= 0 {
		t.Fatalf("flexsp_queue_limit = %v", v)
	}
}

// TestTraceEndpoints pins the request-trace ring: a planning request is
// assigned a trace ID (returned in X-Flexsp-Trace-Id), GET /v2/trace lists
// it, and GET /v2/trace/{id} serves Chrome trace_event JSON that covers the
// whole solve path.
func TestTraceEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	body, _ := json.Marshal(PlanRequest{Lengths: testBatch})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v2/plan", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Flexsp-Request-Id", "req-under-test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if rid := resp.Header.Get("X-Flexsp-Request-Id"); rid != "req-under-test" {
		t.Fatalf("request ID not echoed: %q", rid)
	}
	traceID := resp.Header.Get("X-Flexsp-Trace-Id")
	if traceID == "" {
		t.Fatal("no X-Flexsp-Trace-Id on response")
	}

	// The ring lists the finished traces, newest first.
	later, _ := postPlan(t, ts.URL, PlanRequest{Lengths: otherBatch(0)})
	laterID := later.Header.Get("X-Flexsp-Trace-Id")
	lr, err := http.Get(ts.URL + "/v2/trace")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Traces []string `json:"traces"`
	}
	err = json.NewDecoder(lr.Body).Decode(&list)
	lr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 2 || list.Traces[0] != laterID || list.Traces[1] != traceID {
		t.Fatalf("/v2/trace lists %v, want [%s %s] (newest first)", list.Traces, laterID, traceID)
	}

	// The exported trace is Chrome trace_event JSON whose spans cover the
	// request, the solver pass, and the planner underneath it.
	tr, err := http.Get(ts.URL + "/v2/trace/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(tr.Body)
	tr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("GET /v2/trace/%s: status %d: %s", traceID, tr.StatusCode, raw)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Args map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("trace body is not Chrome trace JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range chrome.TraceEvents {
		if ev.Ph == "X" {
			names[ev.Name] = true
		}
	}
	for _, want := range []string{"server.request", "server.pass", "solver.solve", "solver.trial", "planner.plan"} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}

	// Unknown IDs are a 404, not an empty 200.
	nf, err := http.Get(ts.URL + "/v2/trace/nope")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace: status %d, want 404", nf.StatusCode)
	}
}

// TestTracingDisabled pins the opt-out: with a negative TraceEntries the
// trace endpoints answer 501 and responses carry no trace ID.
func TestTracingDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceEntries: -1})
	resp, body := postPlan(t, ts.URL, PlanRequest{Lengths: testBatch})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if id := resp.Header.Get("X-Flexsp-Trace-Id"); id != "" {
		t.Fatalf("tracing disabled but got trace ID %q", id)
	}
	lr, err := http.Get(ts.URL + "/v2/trace")
	if err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	if lr.StatusCode != http.StatusNotImplemented {
		t.Fatalf("/v2/trace status %d, want 501", lr.StatusCode)
	}
}

// TestExplainPassCoordinate pins that explain is part of the coalescing key:
// an explain request must not join a plain request's pass (their encoded
// responses differ), while two explain requests still share one.
func TestExplainPassCoordinate(t *testing.T) {
	_, plainKey := planJob{strategy: "flexsp", lens: testBatch}.key()
	_, explainKey := planJob{strategy: "flexsp", lens: testBatch, explain: true}.key()
	if plainKey == explainKey {
		t.Fatal("explain and plain requests share a coalescing key")
	}
	_, again := planJob{strategy: "flexsp", lens: testBatch, explain: true}.key()
	if explainKey != again {
		t.Fatal("identical explain requests do not share a key")
	}
}

// TestMetricsScrapeRace hammers GET /v1/metrics and GET /metrics while
// solves are in flight; run with -race it pins that every snapshot read is
// synchronized with the solver and cache hot paths.
func TestMetricsScrapeRace(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueLimit: 256, TenantLimit: 256, BatchWindow: time.Millisecond})
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for _, path := range []string{"/v1/metrics", "/metrics"} {
		scrapers.Add(1)
		go func(path string) {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					continue // server teardown race at test end
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(path)
	}

	const perSig, sigs = 8, 4
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
	close(stop)
	scrapers.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	// Final scrape still parses and agrees with the JSON view.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParsePrometheus(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var requests float64
	for _, f := range fams {
		if f.Name == "flexsp_requests_total" {
			requests = f.Samples[0].Value
		}
	}
	if requests != perSig*sigs {
		t.Fatalf("flexsp_requests_total = %v, want %d", requests, perSig*sigs)
	}
}
