package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/pipeline"
	"flexsp/internal/planner"
	"flexsp/internal/solver"
)

// elasticRebuild returns the test Rebuild hook: a hetero solver and a
// pipeline strategy profiled for the snapshot's live topology, plus the fixed
// extra strategies.
func elasticRebuild(extra map[string]StrategyFunc) func(cluster.Snapshot) (*solver.Solver, map[string]StrategyFunc, error) {
	return func(snap cluster.Snapshot) (*solver.Solver, map[string]StrategyFunc, error) {
		if len(snap.Mixed.NodeGroups) == 0 {
			return nil, nil, fmt.Errorf("no live devices")
		}
		h := costmodel.ProfileMixed(costmodel.GPT7B, snap.Mixed)
		fns := map[string]StrategyFunc{"pipeline": pipelineStrategy(pipeline.NewHeteroPlanner(h))}
		for name, fn := range extra {
			fns[name] = fn
		}
		return solver.New(planner.NewHetero(h)), fns, nil
	}
}

// newElasticServer builds a daemon over a live nodes×8 A100 fleet; the
// strategies in cfg.Strategies serve every plan state beside pipeline.
func newElasticServer(t *testing.T, nodes int, cfg Config) (*Server, *httptest.Server, *cluster.Elastic) {
	t.Helper()
	m, err := cluster.MixedCluster(cluster.ClassCount{Class: cluster.A100_40G, Devices: nodes * 8})
	if err != nil {
		t.Fatal(err)
	}
	e, err := cluster.NewElastic(m)
	if err != nil {
		t.Fatal(err)
	}
	rebuild := elasticRebuild(cfg.Strategies)
	sv, fns, err := rebuild(e.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Solver = sv
	cfg.Strategies = fns
	cfg.Topology = e
	cfg.Rebuild = rebuild
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, e
}

func postTopology(t *testing.T, url string, req TopologyRequest) (*http.Response, TopologyResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v2/topology", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	raw.ReadFrom(resp.Body)
	var out TopologyResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw.Bytes(), &out); err != nil {
			t.Fatalf("decoding topology response: %v", err)
		}
	}
	return resp, out, raw.String()
}

// postPlanEnvelope posts to /v2/plan and decodes the envelope.
func postPlanEnvelope(t *testing.T, url string, req PlanRequest) PlanEnvelope {
	t.Helper()
	var env PlanEnvelope
	resp := postJSON(t, url+"/v2/plan", req, &env)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v2/plan = %d", resp.StatusCode)
	}
	return env
}

func getTopology(t *testing.T, url string) (*http.Response, TopologyResponse) {
	t.Helper()
	resp, err := http.Get(url + "/v2/topology")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out TopologyResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

// waitReplanned polls until the plan state catches up with the topology
// version (replan finished) or the deadline passes.
func waitReplanned(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		tm := s.topologyMetrics()
		if !tm.Degraded && tm.Replans > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("replan did not complete: %+v", s.topologyMetrics())
}

func TestTopologyEndpointsStaticDaemon(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := getTopology(t, ts.URL)
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("GET /v2/topology on static daemon = %d, want 501", resp.StatusCode)
	}
	resp2, _, _ := postTopology(t, ts.URL, TopologyRequest{Events: []cluster.Event{{Kind: cluster.EventNodeDown, Node: 0}}})
	if resp2.StatusCode != http.StatusNotImplemented {
		t.Fatalf("POST /v2/topology on static daemon = %d, want 501", resp2.StatusCode)
	}
}

func TestTopologyPostValidation(t *testing.T) {
	_, ts, _ := newElasticServer(t, 2, Config{})
	resp, _, _ := postTopology(t, ts.URL, TopologyRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty event batch = %d, want 400", resp.StatusCode)
	}
	resp2, _, body := postTopology(t, ts.URL, TopologyRequest{Events: []cluster.Event{{Kind: cluster.EventNodeDown, Node: 99}}})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range node = %d, want 400 (body %s)", resp2.StatusCode, body)
	}
	resp3, _, body := postTopology(t, ts.URL, TopologyRequest{Events: []cluster.Event{
		{Kind: cluster.EventNodeJoin, Class: "A100-40G", Count: 1_000_000_000}}})
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("node_join past the fleet cap = %d, want 400 (body %s)", resp3.StatusCode, body)
	}
}

func TestTopologyApplyTriggersReplan(t *testing.T) {
	s, ts, _ := newElasticServer(t, 2, Config{ReplanDebounce: time.Millisecond})

	// Solve once so the counters have a retired solver to carry over.
	resp, body := postPlan(t, ts.URL, PlanRequest{Lengths: testBatch})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve = %d: %s", resp.StatusCode, body)
	}
	preSolves := s.solverMetrics().Solves

	resp2, topo, _ := postTopology(t, ts.URL, TopologyRequest{Events: []cluster.Event{{Kind: cluster.EventNodeDown, Node: 1}}})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("topology post = %d", resp2.StatusCode)
	}
	if topo.Version != 1 {
		t.Fatalf("topology version = %d, want 1", topo.Version)
	}
	waitReplanned(t, s)

	_, topo2 := getTopology(t, ts.URL)
	if topo2.PlanVersion != 1 || topo2.Degraded {
		t.Fatalf("after replan: %+v", topo2)
	}
	if topo2.Devices != 8 || topo2.Down != 1 {
		t.Fatalf("live fleet after node loss: %+v", topo2)
	}

	// The replanned daemon plans on the shrunk fleet: every group within 8
	// devices.
	resp3, body3 := postPlan(t, ts.URL, PlanRequest{Lengths: testBatch})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("solve after replan = %d: %s", resp3.StatusCode, body3)
	}
	var env PlanEnvelope
	if err := json.Unmarshal(body3, &env); err != nil || env.Flat == nil {
		t.Fatalf("solve after replan: no flat section (%v): %s", err, body3)
	}
	for _, mp := range env.Flat.Micro {
		for _, g := range mp.Groups {
			if g.Start+g.Size > 8 {
				t.Fatalf("group %+v placed beyond the 8 live devices", g)
			}
		}
	}

	// Counters must stay monotonic across the solver swap: the retired
	// solver's solves still count.
	m := s.Metrics()
	if m.Solver.Solves < preSolves {
		t.Fatalf("solver counter went backwards across replan: %d < %d", m.Solver.Solves, preSolves)
	}
	if m.Topology.Replans < 1 || !m.Topology.Elastic {
		t.Fatalf("topology metrics after replan: %+v", m.Topology)
	}
}

func TestPlanDegradedFlag(t *testing.T) {
	// A long debounce pins the daemon in the degraded window.
	s, ts, _ := newElasticServer(t, 2, Config{ReplanDebounce: time.Hour})

	env := postPlanEnvelope(t, ts.URL, PlanRequest{Lengths: testBatch})
	if env.Degraded {
		t.Fatal("fresh daemon served a degraded plan")
	}
	resp, _, _ := postTopology(t, ts.URL, TopologyRequest{Events: []cluster.Event{{Kind: cluster.EventNodeDown, Node: 1}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topology post = %d", resp.StatusCode)
	}
	env2 := postPlanEnvelope(t, ts.URL, PlanRequest{Lengths: otherBatch(1)})
	if !env2.Degraded {
		t.Fatal("plan served mid-replan-window not flagged degraded")
	}
	if got := s.Metrics().Topology.DegradedPlans; got < 1 {
		t.Fatalf("degraded_plans = %d, want >= 1", got)
	}
}

func TestReplanFlapKeepsSolver(t *testing.T) {
	s, ts, _ := newElasticServer(t, 2, Config{ReplanDebounce: 20 * time.Millisecond})
	before := s.planState().solver

	// Down and back up inside one debounce window: the view is unchanged, so
	// the replan loop must reconcile versions without rebuilding the solver.
	resp, _, _ := postTopology(t, ts.URL, TopologyRequest{Events: []cluster.Event{
		{Kind: cluster.EventNodeDown, Node: 0},
		{Kind: cluster.EventNodeUp, Node: 0},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topology post = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && s.topologyMetrics().Degraded {
		time.Sleep(5 * time.Millisecond)
	}
	tm := s.topologyMetrics()
	if tm.Degraded {
		t.Fatalf("flap never reconciled: %+v", tm)
	}
	if s.planState().solver != before {
		t.Fatal("unchanged view rebuilt the solver")
	}
}

// TestStreamCloseAfterReplan pins that a stream session closed after a
// replan it opened before is planned on the live fleet: the envelope is not
// degraded, every group fits the 24 devices left after the node loss, and it
// carries the daemon's calibration tag in the envelope and in explain like
// POST /v2/plan does.
func TestStreamCloseAfterReplan(t *testing.T) {
	const tag = "v3 (x)"
	s, ts, _ := newElasticServer(t, 4, Config{ReplanDebounce: time.Millisecond,
		Calibration: CalibrationInfo{Version: 3, Tag: tag}})
	id := openStream(t, ts.URL, StreamOpenRequest{})
	if resp, body := postStream(t, ts.URL, "/v2/stream/"+id+"/append", StreamAppendRequest{Lengths: testBatch}); resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d body %s", resp.StatusCode, body)
	}
	if resp, _, body := postTopology(t, ts.URL, TopologyRequest{Events: []cluster.Event{{Kind: cluster.EventNodeDown, Node: 3}}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("topology post = %d: %s", resp.StatusCode, body)
	}
	waitReplanned(t, s)

	resp, body := postStream(t, ts.URL, "/v2/stream/"+id+"/close", StreamCloseRequest{Explain: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close: status %d body %s", resp.StatusCode, body)
	}
	var closed PlanEnvelope
	if err := json.Unmarshal(body, &closed); err != nil {
		t.Fatal(err)
	}
	if closed.Degraded {
		t.Error("close after the replan flagged degraded")
	}
	if got := s.Metrics().Topology.DegradedPlans; got != 0 {
		t.Errorf("degraded_plans = %d, want 0", got)
	}
	if closed.Flat == nil || len(closed.Flat.Micro) == 0 {
		t.Fatalf("close returned no flat plan: %s", body)
	}
	for _, mp := range closed.Flat.Micro {
		used := 0
		for _, g := range mp.Groups {
			used += g.Degree
			if g.Size > 0 && g.Start+g.Size > 24 {
				t.Errorf("group %+v lies outside the 24 live devices", g)
			}
		}
		if used > 24 {
			t.Errorf("micro-batch uses %d devices, 24 are live", used)
		}
	}
	plan := postPlanEnvelope(t, ts.URL, PlanRequest{Lengths: testBatch, Explain: true})
	for what, env := range map[string]PlanEnvelope{"stream close": closed, "/v2/plan": plan} {
		if env.Calibration != tag || env.Explain == nil || env.Explain.Calibration != tag {
			t.Errorf("%s: calibration %q, explain %+v; want %q in both", what, env.Calibration, env.Explain, tag)
		}
	}
}

// TestElasticRaces exercises topology events racing in-flight solves, stream
// sessions, metrics scrapes, and shutdown under the race detector.
func TestElasticRaces(t *testing.T) {
	s, ts, e := newElasticServer(t, 3, Config{ReplanDebounce: time.Millisecond})

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				postPlan(t, ts.URL, PlanRequest{Lengths: otherBatch(w*10 + i)})
			}
		}(w)
	}
	// A streaming session rides through the topology churn: opened on one
	// solver, events land mid-stream, close must still serve a plan.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var open StreamOpenResponse
		resp := postJSON(t, ts.URL+"/v2/stream/open", StreamOpenRequest{Expect: 16}, &open)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("stream open = %d", resp.StatusCode)
			return
		}
		for i := 0; i < 4; i++ {
			postJSON(t, ts.URL+"/v2/stream/"+open.Session+"/append",
				StreamAppendRequest{Lengths: otherBatch(i)}, nil)
		}
		var env PlanEnvelope
		cresp := postJSON(t, ts.URL+"/v2/stream/"+open.Session+"/close", StreamCloseRequest{}, &env)
		if cresp.StatusCode != http.StatusOK {
			t.Errorf("stream close = %d", cresp.StatusCode)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		events := []cluster.Event{
			{Kind: cluster.EventNodeDown, Node: 2},
			{Kind: cluster.EventNodeUp, Node: 2},
			{Kind: cluster.EventStraggle, Node: 1, Factor: 2},
			{Kind: cluster.EventStraggle, Node: 1, Factor: 1},
			{Kind: cluster.EventDeviceOOM, Node: 0, Device: 3},
			{Kind: cluster.EventNodeUp, Node: 0},
		}
		for _, ev := range events {
			if _, err := e.Apply(ev); err != nil {
				t.Errorf("Apply(%v): %v", ev, err)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			s.Metrics()
			http.Get(ts.URL + "/metrics")
			getTopology(t, ts.URL)
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	// Event racing shutdown: Apply concurrently with Drain and Close.
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		e.Apply(cluster.Event{Kind: cluster.EventNodeDown, Node: 1})
	}()
	s.Drain()
	s.Close()
	done.Wait()
}

// postJSON posts a JSON body and decodes the response into out when non-nil.
func postJSON(t *testing.T, url string, in any, out any) *http.Response {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}
