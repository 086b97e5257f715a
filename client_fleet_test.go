package flexsp_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"flexsp"
	"flexsp/internal/fleet"
)

// staticDaemon serves a static daemon over 8 A100s and returns its URL.
func staticDaemon(t *testing.T) string {
	t.Helper()
	sys, err := flexsp.NewSystem(flexsp.Config{Devices: 8, Model: flexsp.GPT7B})
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
	return ts.URL
}

// TestClientFleetMembership drives a router's membership through the
// client: join a second daemon, list both, plan through the router, leave
// one, and leave a name the router does not know.
func TestClientFleetMembership(t *testing.T) {
	a, b := staticDaemon(t), staticDaemon(t)
	rt, err := fleet.New(fleet.Config{Replicas: []fleet.Replica{{Name: "a", URL: a}}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rts := httptest.NewServer(rt)
	t.Cleanup(rts.Close)
	client := flexsp.NewClient(rts.URL)
	ctx := context.Background()

	names := func(st flexsp.FleetStatus) []string {
		var out []string
		for _, r := range st.Replicas {
			out = append(out, r.Name)
		}
		return out
	}
	if _, err := client.FleetJoin(ctx, flexsp.FleetReplica{Name: "b", URL: b}); err != nil {
		t.Fatal(err)
	}
	st, err := client.Fleet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(st); len(got) != 2 || got[0] != "a" || got[1] != "b" || st.Routable != 2 {
		t.Fatalf("fleet after join: replicas %v, %d routable", got, st.Routable)
	}

	env, err := client.Plan(ctx, flexsp.PlanRequest{Lengths: []int{10240, 8192, 4096}})
	if err != nil {
		t.Fatal(err)
	}
	if env.Strategy != "flexsp" || len(env.Plans()) == 0 {
		t.Fatalf("routed plan: strategy %q, %d micro-batches", env.Strategy, len(env.Plans()))
	}

	st, err = client.FleetLeave(ctx, "b")
	if err != nil {
		t.Fatal(err)
	}
	if got := names(st); len(got) != 1 || got[0] != "a" {
		t.Fatalf("fleet after leave: replicas %v", got)
	}
	_, err = client.FleetLeave(ctx, "nope")
	var se *flexsp.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusNotFound {
		t.Fatalf("leaving an unknown replica: %v, want a 404 StatusError", err)
	}
}
