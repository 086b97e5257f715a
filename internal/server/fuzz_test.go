package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flexsp/internal/cluster"
	"flexsp/internal/solver"
)

// fuzzBodyLimit keeps individual fuzz inputs small enough that the cost is
// the decoder under test, not a multi-megabyte solve.
const fuzzBodyLimit = 64 << 10

// checkWireResponse asserts the daemon's wire invariants on any response: an
// expected status, a JSON body with the trailing-newline convention, and a
// populated error message on every non-2xx answer.
func checkWireResponse(t *testing.T, rec *httptest.ResponseRecorder, allowed ...int) {
	t.Helper()
	ok := false
	for _, s := range allowed {
		if rec.Code == s {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("status %d not in %v; body: %s", rec.Code, allowed, rec.Body.String())
	}
	body := rec.Body.Bytes()
	if len(body) == 0 || body[len(body)-1] != '\n' {
		t.Fatalf("status %d: body missing trailing newline: %q", rec.Code, body)
	}
	if rec.Code/100 != 2 {
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Fatalf("status %d: error body is not an ErrorResponse: %q", rec.Code, body)
		}
	} else if !json.Valid(body) {
		t.Fatalf("status %d: body is not valid JSON: %q", rec.Code, body)
	}
}

// FuzzPlanRequestDecode hammers the POST /v2/plan decoder with arbitrary
// bodies: malformed input must answer 400 with a JSON error (never panic,
// never hang the batcher), valid input 200 or 422 (unsolvable batch).
func FuzzPlanRequestDecode(f *testing.F) {
	f.Add([]byte(`{"lengths":[1024,2048,4096]}`))
	f.Add([]byte(`{"lengths":[1024,512],"strategy":"flexsp","maxCtx":4096,"explain":true}`))
	f.Add([]byte(`{"lengths":[1024`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"lengths":"nope"}`))
	f.Add([]byte(`{"lengths":[-5]}`))
	f.Add([]byte(`{"lengths":[0]}`))
	f.Add([]byte(`{"lengths":[1024],"strategy":"warp"}`))
	f.Add([]byte(`{"lengths":[1024],"maxCtx":-1}`))
	f.Add([]byte(`{"lengths":[9007199254740993]}`))

	s, err := New(Config{Solver: testSolver(), Strategies: testStrategies(), BatchWindow: -1})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()

	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > fuzzBodyLimit {
			t.Skip("oversized input")
		}
		// Pre-screen well-formed requests that would be expensive rather than
		// revealing: the solver's cost is the batch's, not the decoder's.
		var req PlanRequest
		if json.Unmarshal(body, &req) == nil {
			if len(req.Lengths) > 32 {
				t.Skip("large valid batch")
			}
			for _, l := range req.Lengths {
				if l > 16<<20 {
					t.Skip("huge sequence length")
				}
			}
		}
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest(http.MethodPost, "/v2/plan", strings.NewReader(string(body)))
		hr.Header.Set("Content-Type", "application/json")
		s.ServeHTTP(rec, hr)
		checkWireResponse(t, rec,
			http.StatusOK, http.StatusBadRequest, http.StatusUnprocessableEntity, http.StatusNotImplemented)
	})
}

// FuzzTopologyEventDecode hammers the POST /v2/topology decoder: malformed
// bodies and invalid event batches must answer 400 with a JSON error, valid
// batches 200 — and nothing may panic the daemon. Each iteration gets a
// fresh elastic fleet (events mutate topology state) with a stub Rebuild, so
// the fuzzer pays for the decoder and Apply, not for replanning.
func FuzzTopologyEventDecode(f *testing.F) {
	f.Add([]byte(`{"events":[{"kind":"node_down","node":0}]}`))
	f.Add([]byte(`{"events":[{"kind":"node_up","node":1}]}`))
	f.Add([]byte(`{"events":[{"kind":"straggle","node":0,"factor":1.5}]}`))
	f.Add([]byte(`{"events":[{"kind":"node_join","class":"A100-40G","count":1}]}`))
	f.Add([]byte(`{"events":[]}`))
	f.Add([]byte(`{"events":[{"kind":"meltdown"}]}`))
	f.Add([]byte(`{"events":[{"kind":"node_down","node":-1}]}`))
	f.Add([]byte(`{"events":[{"kind":"node_down","node":999}]}`))
	f.Add([]byte(`{"events":`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"events":[{"kind":"node_join","class":"A100-40G","count":1000000000}]}`))

	sv, fns := testSolver(), testStrategies()
	stubRebuild := func(cluster.Snapshot) (*solver.Solver, map[string]StrategyFunc, error) {
		return sv, fns, nil
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > fuzzBodyLimit {
			t.Skip("oversized input")
		}
		var req TopologyRequest
		if json.Unmarshal(body, &req) == nil && len(req.Events) > 16 {
			t.Skip("large valid event batch")
		}
		m, err := cluster.MixedCluster(cluster.ClassCount{Class: cluster.A100_40G, Devices: 16})
		if err != nil {
			t.Fatal(err)
		}
		e, err := cluster.NewElastic(m)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Solver: sv, Strategies: fns, Topology: e, Rebuild: stubRebuild, BatchWindow: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest(http.MethodPost, "/v2/topology", strings.NewReader(string(body)))
		hr.Header.Set("Content-Type", "application/json")
		s.ServeHTTP(rec, hr)
		checkWireResponse(t, rec, http.StatusOK, http.StatusBadRequest)
	})
}
