package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/planner"
	"flexsp/internal/server"
	"flexsp/internal/solver"
)

// newFleetReplica boots one in-process flexsp-serve replica on an httptest
// listener. The config mirrors a small production daemon: bounded admission
// and a short batching window.
func newFleetReplica(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	coeffs := costmodel.Profile(costmodel.GPT7B, cluster.A100Cluster(8))
	if cfg.Solver == nil {
		cfg.Solver = solver.New(planner.New(coeffs))
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// newTestRouter builds a Router over the replicas and serves it on an
// httptest listener.
func newTestRouter(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	t.Cleanup(func() { ts.Close(); rt.Close() })
	return rt, ts
}

var fleetTestBatch = []int{1024, 2048, 3072, 4096, 6144, 8192, 12288, 16384}

// postPlan sends one /v2/plan request and returns the status and full body.
func postPlan(t *testing.T, url string, lens []int) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(server.PlanRequest{Lengths: lens})
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
	return resp.StatusCode, out
}

// stripWall zeroes the envelope's solveWallSeconds fields — the one part of
// the wire body that is wall-clock, so it legitimately differs between two
// processes that each solved cold. Everything else must match byte for byte.
func stripWall(envelope []byte) []byte {
	return wallRe.ReplaceAll(envelope, []byte(`"solveWallSeconds":0`))
}

var wallRe = regexp.MustCompile(`"solveWallSeconds":[0-9.eE+-]+`)

// TestFleetByteIdentity pins the fleet's transparency gate: the envelope a
// client receives through the router is byte-identical to the lone daemon's
// (modulo solveWallSeconds, the one wall-clock field every fresh solve
// restamps) — and the rebalanced answer, served from the previous home's
// envelope cache instead of a solve, is exactly byte-identical to the bytes
// the home originally sent, wall stamp included.
func TestFleetByteIdentity(t *testing.T) {
	_, lone := newFleetReplica(t, server.Config{})
	status, loneBody := postPlan(t, lone.URL, fleetTestBatch)
	if status != http.StatusOK {
		t.Fatalf("lone daemon: status %d: %s", status, loneBody)
	}

	names := []string{"a", "b", "c"}
	members := make([]Replica, len(names))
	for i, n := range names {
		_, ts := newFleetReplica(t, server.Config{})
		members[i] = Replica{Name: n, URL: ts.URL}
	}
	rt, router := newTestRouter(t, Config{Replicas: members, ProbeInterval: -1})

	status, want := postPlan(t, router.URL, fleetTestBatch)
	if status != http.StatusOK {
		t.Fatalf("fleet cold: status %d: %s", status, want)
	}
	if !bytes.Equal(stripWall(want), stripWall(loneBody)) {
		t.Fatalf("fleet cold envelope differs from lone daemon:\n got %s\nwant %s", want, loneBody)
	}
	status, warm := postPlan(t, router.URL, fleetTestBatch)
	if status != http.StatusOK || !bytes.Equal(stripWall(warm), stripWall(want)) {
		t.Fatalf("fleet warm envelope differs from fleet cold (status %d):\n got %s\nwant %s", status, warm, want)
	}

	// Force a rebalance: join replicas until the batch's key homes on a new,
	// cold one. The router must answer from the previous home's envelope
	// cache — and still byte-identically.
	_, key := solver.Signature(fleetTestBatch)
	oldHome := Home(key, names)
	newName := ""
	for i := 0; i < 1000 && newName == ""; i++ {
		if n := fmt.Sprintf("n%03d", i); Home(key, append(names, n)) == n {
			newName = n
		}
	}
	if newName == "" {
		t.Fatal("no candidate name takes over the key; hash is suspiciously static")
	}
	_, fresh := newFleetReplica(t, server.Config{})
	joinBody, _ := json.Marshal(Replica{Name: newName, URL: fresh.URL})
	resp, err := http.Post(router.URL+"/v2/fleet/join", "application/json", bytes.NewReader(joinBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: status %d", resp.StatusCode)
	}

	// The peer tier must serve the exact bytes the previous home last sent —
	// wall stamp included, because it relays a stored envelope, not a solve.
	preHits := rt.met.peerHits.Value()
	status, got := postPlan(t, router.URL, fleetTestBatch)
	if status != http.StatusOK {
		t.Fatalf("fleet rebalanced: status %d: %s", status, got)
	}
	if !bytes.Equal(got, warm) {
		t.Fatalf("rebalanced envelope (via peer cache of %s) differs from the home's last answer:\n got %s\nwant %s",
			oldHome, got, warm)
	}
	if hits := rt.met.peerHits.Value() - preHits; hits != 1 {
		t.Fatalf("peer cache hits after rebalance = %d, want 1 (the response must come from %s's envelope cache)",
			hits, oldHome)
	}
}

// TestClientCancelDoesNotDemote pins the health state machine to replica
// failures only: a client that disconnects mid-request cancels the proxied
// context, and the resulting transport error must not demote the (perfectly
// healthy) replica — otherwise a disconnect-happy client walks it through
// suspect to down, and with the prober disabled it would never come back.
func TestClientCancelDoesNotDemote(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(slow.Close)

	rt, router := newTestRouter(t, Config{
		Replicas:      []Replica{{Name: "a", URL: slow.URL}},
		ProbeInterval: -1,
		DownAfter:     2,
	})
	preVersion := rt.Version()

	body, _ := json.Marshal(server.PlanRequest{Lengths: fleetTestBatch})
	for i := 0; i < 2*3; i++ { // well past DownAfter × MaxAttempts
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, router.URL+"/v2/plan", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		cancel()
	}

	if st := rt.lookup("a").state(); st != StateHealthy {
		t.Fatalf("replica state after client cancellations = %s, want healthy", st)
	}
	if v := rt.Version(); v != preVersion {
		t.Fatalf("routing version churned from %d to %d on client cancellations", preVersion, v)
	}
}

// TestDrainedDemotesToDown pins the drained → down edge: a replica that
// answered 503 (drained) and then dies keeps failing probes, and after
// DownAfter consecutive failures it must report down — not "drained"
// forever, which would misstate why it is out of rotation.
func TestDrainedDemotesToDown(t *testing.T) {
	rt, err := New(Config{
		Replicas:      []Replica{{Name: "a", URL: "http://127.0.0.1:1"}},
		ProbeInterval: -1,
		DownAfter:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	rt.setState("a", StateDrained, true)
	rt.markFailed("a")
	if st := rt.lookup("a").state(); st != StateDrained {
		t.Fatalf("state after one probe failure = %s, want still drained", st)
	}
	rt.markFailed("a")
	if st := rt.lookup("a").state(); st != StateDown {
		t.Fatalf("state after DownAfter probe failures = %s, want down", st)
	}
}

// TestFleetChurn hammers an in-process 3-replica fleet with concurrent plan
// requests while replicas join, drain, die and rejoin and the metrics and
// admin endpoints are scraped — a -race soak of routing, health and admin.
// It asserts liveness, not per-request success: when the dust settles the
// router must still route.
func TestFleetChurn(t *testing.T) {
	capacity := server.Config{QueueLimit: 4, TenantLimit: 64, BatchWindow: time.Millisecond}
	names := []string{"a", "b", "c"}
	members := make([]Replica, len(names))
	servers := make([]*server.Server, len(names))
	listeners := make([]*httptest.Server, len(names))
	for i, n := range names {
		srv, ts := newFleetReplica(t, capacity)
		servers[i], listeners[i] = srv, ts
		members[i] = Replica{Name: n, URL: ts.URL}
	}
	_, router := newTestRouter(t, Config{
		Replicas:      members,
		ProbeInterval: 20 * time.Millisecond,
		DownAfter:     2,
		MaxInflight:   2,
	})

	pool := make([][]int, 6)
	for i := range pool {
		batch := make([]int, len(fleetTestBatch))
		for j, l := range fleetTestBatch {
			batch[j] = l + 512*i
		}
		pool[i] = batch
	}

	client := &http.Client{Timeout: 5 * time.Second}
	post := func(path string, payload []byte) {
		resp, err := client.Post(router.URL+path, "application/json", bytes.NewReader(payload))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	get := func(path string) {
		resp, err := client.Get(router.URL + path)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}

	var wg sync.WaitGroup
	// Planners: every status is acceptable mid-churn (429 spill, 502 during
	// a kill); the race detector and the final liveness check are the test.
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				body, _ := json.Marshal(server.PlanRequest{Lengths: pool[(c+i)%len(pool)]})
				post("/v2/plan", body)
			}
		}(c)
	}
	// Scraper: metrics, routing table, traces and the topology fan-out.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			get("/metrics")
			get("/v1/metrics")
			get("/v2/fleet")
			get("/v2/trace")
			get("/v2/topology")
			time.Sleep(2 * time.Millisecond)
		}
	}()
	// Churner: a fourth replica joins and leaves repeatedly (each join under
	// the same name replaces the previous URL, covering the rejoin path).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			_, ts := newFleetReplica(t, capacity)
			joinBody, _ := json.Marshal(Replica{Name: "d", URL: ts.URL})
			post("/v2/fleet/join", joinBody)
			time.Sleep(10 * time.Millisecond)
			post("/v2/fleet/leave", []byte(`{"name":"d"}`))
			time.Sleep(5 * time.Millisecond)
		}
	}()
	// Failures: replica b drains (503s thereafter), replica c dies hard and
	// a cold replacement rejoins under its old name, reclaiming the key
	// range.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(15 * time.Millisecond)
		servers[1].Drain()
		time.Sleep(15 * time.Millisecond)
		listeners[2].CloseClientConnections()
		listeners[2].Close()
		servers[2].Close()
		time.Sleep(10 * time.Millisecond)
		_, fresh := newFleetReplica(t, capacity)
		joinBody, _ := json.Marshal(Replica{Name: "c", URL: fresh.URL})
		post("/v2/fleet/join", joinBody)
	}()
	wg.Wait()

	// Liveness: the fleet must settle back to routable and answer a plan.
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, _ := postPlan(t, router.URL, fleetTestBatch)
		if status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet did not recover after churn: last status %d", status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReplicaKillUnderLoad hard-kills one of three replicas while concurrent
// clients plan through the router. Failover must hide the loss: every
// answer is a 200 carrying a full envelope, or a 429 when admission
// control turned the request away — never a 502 or a broken response.
func TestReplicaKillUnderLoad(t *testing.T) {
	capacity := server.Config{QueueLimit: 2, TenantLimit: 64, BatchWindow: 5 * time.Millisecond}
	names := []string{"a", "b", "c"}
	members := make([]Replica, len(names))
	servers := make([]*server.Server, len(names))
	listeners := make([]*httptest.Server, len(names))
	for i, n := range names {
		servers[i], listeners[i] = newFleetReplica(t, capacity)
		members[i] = Replica{Name: n, URL: listeners[i].URL}
	}
	_, router := newTestRouter(t, Config{
		Replicas:      members,
		ProbeInterval: 20 * time.Millisecond,
		DownAfter:     2,
		MaxInflight:   2,
	})

	pool := make([][]int, 12)
	for i := range pool {
		batch := make([]int, len(fleetTestBatch))
		for j, l := range fleetTestBatch {
			batch[j] = l + 512*i
		}
		pool[i] = batch
		if status, body := postPlan(t, router.URL, batch); status != http.StatusOK {
			t.Fatalf("warm-up %d: status %d: %s", i, status, body)
		}
	}

	const clients, perClient = 6, 30
	var done atomic.Int64
	var kill sync.Once
	errs := make(chan string, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				req, _ := json.Marshal(server.PlanRequest{Lengths: pool[(c*perClient+i)%len(pool)]})
				resp, err := http.Post(router.URL+"/v2/plan", "application/json", bytes.NewReader(req))
				if err != nil {
					errs <- err.Error()
					continue
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case err != nil:
					errs <- fmt.Sprintf("status %d, reading body: %v", resp.StatusCode, err)
				case resp.StatusCode == http.StatusOK:
					var env server.PlanEnvelope
					if err := json.Unmarshal(body, &env); err != nil || env.Flat == nil {
						errs <- fmt.Sprintf("200 without a full envelope (%v): %s", err, body)
					}
				case resp.StatusCode != http.StatusTooManyRequests:
					errs <- fmt.Sprintf("status %d: %s", resp.StatusCode, body)
				}
				if done.Add(1) == clients*perClient/2 {
					kill.Do(func() {
						listeners[2].CloseClientConnections()
						listeners[2].Close()
						servers[2].Close()
					})
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestV1SolveRoutesGone pins the retirement of the /v1 planning routes: the
// daemon and the router both answer them 404, while GET /v1/metrics stays.
func TestV1SolveRoutesGone(t *testing.T) {
	_, replica := newFleetReplica(t, server.Config{})
	_, router := newTestRouter(t, Config{
		Replicas:      []Replica{{Name: "a", URL: replica.URL}},
		ProbeInterval: -1,
	})
	body, _ := json.Marshal(server.PlanRequest{Lengths: fleetTestBatch})
	for _, base := range []string{replica.URL, router.URL} {
		for _, path := range []string{"/v1/solve", "/v1/solve/pipelined"} {
			resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("POST %s%s = %d, want 404", base, path, resp.StatusCode)
			}
		}
		resp, err := http.Get(base + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s/v1/metrics = %d, want 200", base, resp.StatusCode)
		}
	}
}

// TestRouterTraceListNewestFirst pins the router's GET /v2/trace to the
// daemon's order, newest first: each listed fleet.route trace names the
// signature it routed, and the last request's comes first.
func TestRouterTraceListNewestFirst(t *testing.T) {
	_, replica := newFleetReplica(t, server.Config{})
	_, router := newTestRouter(t, Config{Replicas: []Replica{{Name: "a", URL: replica.URL}}, ProbeInterval: -1})
	batches := [][]int{fleetTestBatch, {4096, 2048}}
	for _, lens := range batches {
		if status, body := postPlan(t, router.URL, lens); status != http.StatusOK {
			t.Fatalf("plan: status %d: %s", status, body)
		}
	}
	var list struct {
		Traces []string `json:"traces"`
	}
	getJSON(t, router.URL+"/v2/trace", &list)
	if len(list.Traces) != len(batches) {
		t.Fatalf("router lists %d traces, want %d", len(list.Traces), len(batches))
	}
	for i, id := range list.Traces {
		var chrome struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		getJSON(t, router.URL+"/v2/trace/"+id, &chrome)
		_, key := solver.Signature(batches[len(batches)-1-i])
		want, got := fmt.Sprintf("%016x", key), any(nil)
		for _, ev := range chrome.TraceEvents {
			if ev.Name == "fleet.route" {
				got = ev.Args["sig"]
			}
		}
		if got != want {
			t.Errorf("trace %d of the list routed %v, want %s (newest first)", i, got, want)
		}
	}
}

// getJSON GETs a URL and decodes its 200 JSON body into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestFullFleetAnswers429 pins the router's answer when the replicas that
// respond are full and the rest are unreachable: a retryable 429, not a 502.
// The key's home answers 429 and its only fallback refuses connections.
func TestFullFleetAnswers429(t *testing.T) {
	full := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"queue full"}` + "\n"))
	}))
	t.Cleanup(full.Close)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	_, router := newTestRouter(t, Config{
		Replicas:      []Replica{{Name: "a", URL: full.URL}, {Name: "b", URL: deadURL}},
		ProbeInterval: -1,
	})
	// Find a batch whose key ranks the full replica first, so the dead one
	// is the last attempt.
	var batch []int
	for i := 0; batch == nil; i++ {
		cand := []int{1024 + 512*i, 2048}
		if _, key := solver.Signature(cand); Rank(key, []string{"a", "b"})[0] == "a" {
			batch = cand
		}
	}
	if status, body := postPlan(t, router.URL, batch); status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", status, body)
	}
}
