package flexsp_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"flexsp"
	"flexsp/internal/cluster"
	"flexsp/internal/server"
	"flexsp/internal/workload"
)

// elasticDaemon serves an elastic daemon over 64 A100s (8 nodes of 8). The
// boot events are applied to the fleet before the daemon is built, so it
// starts on that fleet rather than replanning onto it.
func elasticDaemon(t *testing.T, debounce time.Duration, boot ...flexsp.TopologyEvent) *flexsp.Client {
	t.Helper()
	sys, err := flexsp.NewSystem(flexsp.Config{Devices: 64, Model: flexsp.GPT7B,
		Serve: flexsp.ServeConfig{Elastic: true, ReplanDebounce: debounce}})
	if err != nil {
		t.Fatal(err)
	}
	if len(boot) > 0 {
		if _, err := sys.Topology().Apply(boot...); err != nil {
			t.Fatal(err)
		}
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

// waitReplanned polls until the daemon's plan state has caught up with its
// topology.
func waitReplanned(t *testing.T, client *flexsp.Client) server.TopologyResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		topo, err := client.Topology(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if topo.Replans >= 1 && !topo.Degraded {
			return topo
		}
		if time.Now().After(deadline) {
			t.Fatalf("replan never landed: %+v", topo)
		}
		time.Sleep(5 * time.Millisecond)
	}
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
	if _, err := client.ApplyTopology(context.Background(), flexsp.TopologyEvent{Kind: cluster.EventNodeDown, Node: 7}); err != nil {
		t.Fatal(err)
	}
	if topo := waitReplanned(t, client); topo.Devices != live {
		t.Fatalf("live devices = %d, want %d", topo.Devices, live)
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

// TestReplannedDaemonAnswersLikeBootedOne pins that a replan carries no
// plans over from the old fleet: a daemon that planned a batch before a
// topology event plans it again, after the replan, exactly as a daemon
// booted on the new fleet does — the envelopes match in every field but the
// solve's wall time. Seeds 1-6 rotate the three corpora over 64 sequences
// at 192K.
func TestReplannedDaemonAnswersLikeBootedOne(t *testing.T) {
	corpora := []func() workload.Dataset{flexsp.CommonCrawl, flexsp.GitHub, flexsp.Wikipedia}
	events := []flexsp.TopologyEvent{
		{Kind: cluster.EventNodeDown, Node: 3},
		{Kind: cluster.EventStraggle, Node: 2, Factor: 1.5},
		{Kind: cluster.EventNodeDown, Node: 7},
		{Kind: cluster.EventStraggle, Node: 5, Factor: 1.5},
	}
	ctx := context.Background()
	plan := func(t *testing.T, client *flexsp.Client, batch []int) server.PlanEnvelope {
		t.Helper()
		env, err := client.Plan(ctx, flexsp.PlanRequest{Lengths: batch})
		if err != nil {
			t.Fatal(err)
		}
		env.SolveWallSeconds = 0
		if env.Flat != nil {
			env.Flat.SolveWallSeconds = 0
		}
		return env
	}
	for seed := int64(1); seed <= 6; seed++ {
		batch := corpora[(seed-1)%3]().Batch(rand.New(rand.NewSource(seed)), 64, 192<<10)
		for _, ev := range events {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, ev), func(t *testing.T) {
				replanned := elasticDaemon(t, -1)
				plan(t, replanned, batch)
				if _, err := replanned.ApplyTopology(ctx, ev); err != nil {
					t.Fatal(err)
				}
				waitReplanned(t, replanned)
				got := plan(t, replanned, batch)
				want := plan(t, elasticDaemon(t, -1, ev), batch)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("replanned daemon's plan (est %.6gs) differs from a booted daemon's (est %.6gs)",
						got.EstTime, want.EstTime)
				}
			})
		}
	}
}
