package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"flexsp/internal/cluster"
	"flexsp/internal/solver"
)

// fetchCache probes GET /v2/cache/{sig} and decodes a hit.
func fetchCache(t *testing.T, url string, lens []int, query string) (int, CacheFetchResponse) {
	t.Helper()
	_, key := solver.Signature(lens)
	target := fmt.Sprintf("%s/v2/cache/%016x%s", url, key, query)
	resp, err := http.Get(target)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out CacheFetchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

// TestCacheFetchStrategyCaseInsensitive pins the peer tier to the same
// strategy-name normalization as POST /v2/plan: a client that plans with
// "FlexSP" stores the envelope under "flexsp", and a probe spelling it yet
// another way must still hit rather than silently always missing.
func TestCacheFetchStrategyCaseInsensitive(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	lens := []int{1024, 2048, 4096, 8192}
	postPlanEnvelope(t, ts.URL, PlanRequest{Strategy: "FlexSP", Lengths: lens})

	status, got := fetchCache(t, ts.URL, lens, "?strategy=FLEXSP")
	if status != http.StatusOK {
		t.Fatalf("GET /v2/cache?strategy=FLEXSP = %d, want 200 (stored as %q)", status, "flexsp")
	}
	if got.Strategy != "flexsp" {
		t.Fatalf("cache fetch echoed strategy %q, want normalized %q", got.Strategy, "flexsp")
	}
	if status, _ := fetchCache(t, ts.URL, lens, ""); status != http.StatusOK {
		t.Fatalf("GET /v2/cache with defaulted strategy = %d, want 200", status)
	}
}

// TestCacheFetchTopologyInvalidation pins the fleet-safety invariant the
// envelope cache exists under: an envelope stored before a topology event
// describes a fleet view that no longer exists, so the instant the event
// applies — before, during and after the background replan — the peer tier
// must refuse to replicate it. Once the replan lands and a fresh plan is
// served, the tier serves again, stamped with the new version.
func TestCacheFetchTopologyInvalidation(t *testing.T) {
	s, ts, _ := newElasticServer(t, 4, Config{})
	lens := []int{1024, 2048, 4096, 8192}
	postPlanEnvelope(t, ts.URL, PlanRequest{Lengths: lens})

	status, got := fetchCache(t, ts.URL, lens, "")
	if status != http.StatusOK {
		t.Fatalf("cache fetch before topology event = %d, want 200", status)
	}
	if got.Version != 0 {
		t.Fatalf("cache fetch version = %d, want 0", got.Version)
	}

	resp, _, body := postTopology(t, ts.URL, TopologyRequest{
		Events: []cluster.Event{{Kind: cluster.EventNodeDown, Node: 1}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v2/topology = %d: %s", resp.StatusCode, body)
	}
	// The stale envelope must be gone immediately — not only after the
	// replan — because a peer fetch in the gap would relay a plan referencing
	// the downed node.
	if status, _ := fetchCache(t, ts.URL, lens, ""); status != http.StatusNotFound {
		t.Fatalf("cache fetch after topology event = %d, want 404 (stale envelope served)", status)
	}

	waitReplanned(t, s)
	postPlanEnvelope(t, ts.URL, PlanRequest{Lengths: lens})
	status, got = fetchCache(t, ts.URL, lens, "")
	if status != http.StatusOK {
		t.Fatalf("cache fetch after replan + fresh plan = %d, want 200", status)
	}
	if got.Version != 1 {
		t.Fatalf("cache fetch version after replan = %d, want 1", got.Version)
	}
}

// TestCacheFetchOvertakenPass pins the envelope-cache stamp to the plan state
// that planned the pass: a pass that a replan overtakes planned for the old
// fleet, so it must not be cached under the new topology version, or a peer
// would relay a plan for devices that are gone.
func TestCacheFetchOvertakenPass(t *testing.T) {
	var srv atomic.Pointer[Server]
	overtaken := func(ctx context.Context, spec PlanSpec) (PlanEnvelope, error) {
		s := srv.Load()
		ver, err := s.cfg.Topology.Apply(cluster.Event{Kind: cluster.EventNodeDown, Node: 1})
		if err != nil {
			return PlanEnvelope{}, err
		}
		for deadline := time.Now().Add(10 * time.Second); s.planState().snap.Version < ver; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				return PlanEnvelope{}, fmt.Errorf("replan never landed")
			}
		}
		return PlanEnvelope{Version: WireVersion, Strategy: "overtaken", Flat: &SolveResponse{}}, nil
	}
	s, ts, _ := newElasticServer(t, 2, Config{ReplanDebounce: -1,
		Strategies: map[string]StrategyFunc{"overtaken": overtaken}})
	srv.Store(s)

	lens := []int{1024, 2048}
	if env := postPlanEnvelope(t, ts.URL, PlanRequest{Strategy: "overtaken", Lengths: lens}); !env.Degraded {
		t.Error("pass overtaken by a replan not flagged degraded")
	}
	if status, got := fetchCache(t, ts.URL, lens, "?strategy=overtaken"); status != http.StatusNotFound {
		t.Fatalf("cache fetch of an overtaken pass = %d (version %d), want 404", status, got.Version)
	}
}
