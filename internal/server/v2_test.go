// Versioned-wire-protocol coverage: POST /v2/plan across every registered
// strategy, and the proof that its flat section stays byte-identical to the
// pre-redesign /v1 encoding.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"flexsp"
	"flexsp/internal/planner"
	"flexsp/internal/server"
	"flexsp/internal/solver"
)

// v2TestServer builds a full-strategy daemon over a small fleet.
func v2TestServer(t *testing.T) (*flexsp.System, *httptest.Server) {
	t.Helper()
	sys, err := flexsp.NewSystem(flexsp.Config{Devices: 8, Model: flexsp.GPT7B})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := sys.NewServer()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return sys, ts
}

func v2Batch() []int {
	rng := rand.New(rand.NewSource(21))
	return flexsp.CommonCrawl().Batch(rng, 16, 32<<10)
}

// TestV2PlanAllStrategies pins the acceptance criterion: one endpoint serves
// every registered strategy, each tagged with its section of the envelope.
func TestV2PlanAllStrategies(t *testing.T) {
	sys, ts := v2TestServer(t)
	client := flexsp.NewClient(ts.URL)
	ctx := context.Background()
	batch := v2Batch()

	for _, name := range flexsp.Strategies() {
		env, err := client.Plan(ctx, flexsp.PlanRequest{
			Strategy: name, Lengths: batch, MaxCtx: 32 << 10})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if env.Version != server.WireVersion {
			t.Fatalf("%s: version %d, want %d", name, env.Version, server.WireVersion)
		}
		if env.Strategy != name {
			t.Fatalf("envelope strategy %q, want %q", env.Strategy, name)
		}
		if env.EstTime <= 0 {
			t.Fatalf("%s: estTime %v", name, env.EstTime)
		}
		sections := 0
		for _, set := range []bool{env.Flat != nil, env.Pipelined != nil, env.Megatron != nil} {
			if set {
				sections++
			}
		}
		if sections != 1 {
			t.Fatalf("%s: %d envelope sections set, want exactly 1", name, sections)
		}
		plans := env.Plans()
		if name == flexsp.StrategyMegatron {
			if env.Megatron == nil || len(plans) != 0 {
				t.Fatalf("megatron envelope: section %v, %d plans", env.Megatron, len(plans))
			}
			continue
		}
		if len(plans) == 0 {
			t.Fatalf("%s: no executable plans in envelope", name)
		}
		if name == flexsp.StrategyPipeline {
			continue // stage plans target stage sub-clusters, not the flat executor
		}
		exec, err := sys.Execute(plans)
		if err != nil {
			t.Fatalf("%s: executing wire plans: %v", name, err)
		}
		if exec.Time <= 0 {
			t.Fatalf("%s: exec time %v", name, exec.Time)
		}
	}
}

func TestV2DefaultAndUnknownStrategy(t *testing.T) {
	_, ts := v2TestServer(t)
	client := flexsp.NewClient(ts.URL)
	ctx := context.Background()

	// Empty strategy defaults to flexsp.
	env, err := client.Plan(ctx, flexsp.PlanRequest{Lengths: v2Batch()})
	if err != nil {
		t.Fatal(err)
	}
	if env.Strategy != flexsp.StrategyFlexSP || env.Flat == nil {
		t.Fatalf("default envelope: strategy %q flat %v", env.Strategy, env.Flat != nil)
	}

	// Unknown strategies are a 400 naming the known set.
	_, err = client.Plan(ctx, flexsp.PlanRequest{Strategy: "nope", Lengths: []int{1024}})
	var se *flexsp.StatusError
	if !asStatus(err, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400 StatusError", err)
	}
	if !strings.Contains(se.Message, "flexsp") || !strings.Contains(se.Message, "megatron") {
		t.Fatalf("400 message %q does not list known strategies", se.Message)
	}

	// Negative maxCtx is rejected up front.
	_, err = client.Plan(ctx, flexsp.PlanRequest{Lengths: []int{1024}, MaxCtx: -1})
	if !asStatus(err, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("negative maxCtx err = %v, want 400", err)
	}
}

func asStatus(err error, se **flexsp.StatusError) bool {
	if err == nil {
		return false
	}
	s, ok := err.(*flexsp.StatusError)
	if ok {
		*se = s
	}
	return ok
}

// TestV1ShimGoldenEncoding pins the flat section's encoding byte for byte on
// a fixed solver result. The golden is the body the retired /v1/solve shim
// served; the envelope's flat section keeps it, so a change to the schema,
// field order, or framing of the shared wire types breaks this string.
func TestV1ShimGoldenEncoding(t *testing.T) {
	res := solver.Result{
		M:         2,
		MMin:      1,
		Time:      3.5,
		SolveWall: 1500 * time.Millisecond,
		Plans: []planner.MicroPlan{
			{Time: 2, Groups: []planner.Group{{Degree: 8, Lens: []int{4096, 1024}}}},
			{Time: 1.5, Groups: []planner.Group{{Degree: 4, Lens: []int{2048}}}},
		},
	}
	got, err := json.Marshal(server.EncodeResult(res))
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"m":2,"mMin":1,"estTime":3.5,"solveWallSeconds":1.5,` +
		`"micro":[{"time":2,"groups":[{"degree":8,"lengths":[4096,1024]}]},` +
		`{"time":1.5,"groups":[{"degree":4,"lengths":[2048]}]}]}`
	if string(got) != want {
		t.Fatalf("flat section encoding changed:\n got %s\nwant %s", got, want)
	}
}

// TestV1ShimByteIdentity proves a live /v2/plan body is exactly a
// PlanEnvelope encoding — no added or renamed fields, the trailing-newline
// framing intact — whose flat section is exactly a SolveResponse (the body
// the retired /v1/solve shim served), and that its plans match an in-process
// solve of the same batch.
func TestV1ShimByteIdentity(t *testing.T) {
	sys, ts := v2TestServer(t)
	batch := v2Batch()

	body, _ := json.Marshal(server.PlanRequest{Lengths: batch})
	resp, err := http.Post(ts.URL+"/v2/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}

	// Round-trip byte identity: decoding into the wire structs and
	// re-encoding with the daemon's framing must reproduce the response
	// exactly. Any field a struct does not carry would be dropped here and
	// the bytes would differ.
	var env server.PlanEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Flat == nil {
		t.Fatalf("no flat section: %s", raw)
	}
	reenc, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	reenc = append(reenc, '\n')
	if !bytes.Equal(raw, reenc) {
		t.Fatalf("/v2/plan body is not a pure PlanEnvelope encoding:\n got %s\nwant %s", raw, reenc)
	}
	var sections struct {
		Flat json.RawMessage `json:"flat"`
	}
	if err := json.Unmarshal(raw, &sections); err != nil {
		t.Fatal(err)
	}
	flat, err := json.Marshal(*env.Flat)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sections.Flat, flat) {
		t.Fatalf("flat section is not a pure SolveResponse encoding:\n got %s\nwant %s", sections.Flat, flat)
	}

	// The served plans are the same plans an in-process solve yields.
	res, err := sys.Solver.SolveContext(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	wantMicro, _ := json.Marshal(server.EncodePlans(res.Plans))
	gotMicro, _ := json.Marshal(env.Flat.Micro)
	if !bytes.Equal(gotMicro, wantMicro) {
		t.Fatalf("/v2/plan plans differ from in-process solve:\n got %s\nwant %s", gotMicro, wantMicro)
	}
}

// TestV2Coalescing pins that the v2 batcher keys passes by strategy: the
// same lengths under different strategies must not share a pass, while
// identical requests still coalesce.
func TestV2Coalescing(t *testing.T) {
	sys, err := flexsp.NewSystem(flexsp.Config{
		Devices: 8,
		Serve:   flexsp.ServeConfig{QueueLimit: 64, BatchWindow: 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := sys.NewServer()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := flexsp.NewClient(ts.URL)
	ctx := context.Background()
	batch := v2Batch()

	results := make(chan server.PlanEnvelope, 4)
	errs := make(chan error, 4)
	for _, name := range []string{"flexsp", "flexsp", "deepspeed", "deepspeed"} {
		go func(name string) {
			env, err := client.Plan(ctx, flexsp.PlanRequest{Strategy: name, Lengths: batch, MaxCtx: 32 << 10})
			results <- env
			errs <- err
		}(name)
	}
	strategies := map[string]int{}
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		strategies[(<-results).Strategy]++
	}
	if strategies["flexsp"] != 2 || strategies["deepspeed"] != 2 {
		t.Fatalf("strategy mix %v: a pass crossed strategies", strategies)
	}
	m := srv.Metrics()
	if m.Coalesced == 0 {
		t.Fatal("identical v2 requests did not coalesce")
	}
}
