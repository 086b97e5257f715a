package flexsp_test

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"flexsp"
	"flexsp/internal/cluster"
	"flexsp/internal/server"
)

// elasticDaemon serves an elastic daemon over 64 A100s (8 nodes of 8).
func elasticDaemon(t *testing.T, debounce time.Duration) *flexsp.Client {
	t.Helper()
	sys, err := flexsp.NewSystem(flexsp.Config{Devices: 64, Model: flexsp.GPT7B,
		Serve: flexsp.ServeConfig{Elastic: true, ReplanDebounce: debounce}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := sys.NewServer()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return flexsp.NewClient(ts.URL)
}

// planEveryStrategy posts one batch under every registered strategy.
func planEveryStrategy(t *testing.T, client *flexsp.Client) map[string]server.PlanEnvelope {
	t.Helper()
	batch := flexsp.CommonCrawl().Batch(rand.New(rand.NewSource(17)), 64, 32<<10)
	out := make(map[string]server.PlanEnvelope)
	for _, name := range flexsp.Strategies() {
		env, err := client.Plan(context.Background(), flexsp.PlanRequest{Strategy: name, Lengths: batch, MaxCtx: 32 << 10})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = env
	}
	return out
}

// TestElasticDaemonPlansLiveFleet pins that a replan moves every strategy,
// not only flexsp, onto the live fleet: after node 7 goes down, each
// envelope fits the 56 live devices and none is flagged degraded.
func TestElasticDaemonPlansLiveFleet(t *testing.T) {
	const live = 56
	client := elasticDaemon(t, -1)
	ctx := context.Background()
	if _, err := client.ApplyTopology(ctx, flexsp.TopologyEvent{Kind: cluster.EventNodeDown, Node: 7}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		topo, err := client.Topology(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if topo.Replans >= 1 && !topo.Degraded {
			if topo.Devices != live {
				t.Fatalf("live devices = %d, want %d", topo.Devices, live)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replan never landed: %+v", topo)
		}
		time.Sleep(5 * time.Millisecond)
	}

	for name, env := range planEveryStrategy(t, client) {
		if env.Degraded {
			t.Errorf("%s: degraded after the replan", name)
		}
		switch {
		case env.Flat != nil:
			for i, mp := range env.Flat.Micro {
				used := 0
				for _, g := range mp.Groups {
					if len(g.Lengths) > 0 {
						used += g.Degree
					}
					if g.Start+g.Size > live {
						t.Errorf("%s: micro-plan %d group %+v placed beyond %d live devices", name, i, g, live)
					}
				}
				if used > live {
					t.Errorf("%s: micro-plan %d uses %d devices, %d are live", name, i, used, live)
				}
			}
		case env.Pipelined != nil:
			for _, st := range env.Pipelined.Stages {
				if st.Start+st.Size > live {
					t.Errorf("%s: stage %+v beyond %d live devices", name, st, live)
				}
			}
		case env.Megatron == nil:
			t.Errorf("%s: envelope has no plan section", name)
		}
	}
}

// TestElasticDaemonDegradedWindow pins that inside the debounce window,
// before the replan lands, every strategy's envelope says it was planned for
// the previous fleet view.
func TestElasticDaemonDegradedWindow(t *testing.T) {
	client := elasticDaemon(t, time.Hour)
	if _, err := client.ApplyTopology(context.Background(), flexsp.TopologyEvent{Kind: cluster.EventNodeDown, Node: 7}); err != nil {
		t.Fatal(err)
	}
	for name, env := range planEveryStrategy(t, client) {
		if !env.Degraded {
			t.Errorf("%s: served inside the degraded window without \"degraded\": true", name)
		}
	}
}
