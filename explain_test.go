// Plan-provenance coverage: the Explain view every strategy's plan carries,
// pinned against a golden for the README quickstart workload, plus the
// explain-over-HTTP roundtrip.
package flexsp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flexsp"
)

var updateExplainGolden = flag.Bool("update-explain-golden", false,
	"rewrite testdata/explain_quickstart.golden from the current Explain output")

// quickstartPlan solves the README quickstart workload: 64 devices, GPT-7B,
// a seeded 512-sequence CommonCrawl batch under a 192K context bound.
func quickstartPlan(t *testing.T) flexsp.Plan {
	t.Helper()
	sys, err := flexsp.NewSystem(flexsp.Config{Devices: 64, Model: flexsp.GPT7B})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	batch := flexsp.CommonCrawl().Batch(rng, 512, 192<<10)
	plan, err := sys.Plan(context.Background(), batch, flexsp.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestExplainQuickstartGolden pins Plan.Explain for the quickstart workload:
// the chosen micro-batch count, every rejected trial, and the critical
// micro-batch's per-group cost breakdown are deterministic, so the whole
// provenance document (minus wall-clock time) is asserted byte for byte.
func TestExplainQuickstartGolden(t *testing.T) {
	ex := quickstartPlan(t).Explain()
	if ex == nil {
		t.Fatal("flat plan returned nil Explain")
	}
	// Wall-clock solve time is the one nondeterministic field.
	ex.SolveWallSeconds = 0
	got, err := json.MarshalIndent(ex, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "explain_quickstart.golden")
	if *updateExplainGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-explain-golden to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Explain output changed (run with -update-explain-golden if intended):\n got %s\nwant %s", got, want)
	}
}

// TestExplainRender sanity-checks the human rendering: strategy header, the
// chosen trial marked, a trial the bounded walk pruned with its bound, and
// per-group rows for the critical micro-batch.
func TestExplainRender(t *testing.T) {
	ex := quickstartPlan(t).Explain()
	out := ex.Render()
	for _, want := range []string{"strategy flexsp", "(chosen)", "M=7 pruned (≥20.37s)", "SP="} {
		if !strings.Contains(out, want) {
			t.Errorf("Render output missing %q:\n%s", want, out)
		}
	}
}

// TestExplainAllStrategies pins that every named strategy's plan carries a
// non-nil provenance view with its own strategy tag.
func TestExplainAllStrategies(t *testing.T) {
	sys, err := flexsp.NewSystem(flexsp.Config{Devices: 8, Model: flexsp.GPT7B})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	batch := flexsp.CommonCrawl().Batch(rng, 16, 32<<10)
	for _, name := range flexsp.Strategies() {
		p, err := sys.Plan(context.Background(), batch, flexsp.PlanOptions{Strategy: name, MaxCtx: 32 << 10})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ex := p.Explain()
		if ex == nil {
			t.Fatalf("%s: nil Explain", name)
		}
		if ex.Strategy != name {
			t.Fatalf("Explain strategy %q, want %q", ex.Strategy, name)
		}
		if ex.Render() == "" {
			t.Fatalf("%s: empty Render", name)
		}
	}
}

// TestExplainOverHTTP pins the wire path: a v2 request with explain=true
// carries the provenance in its envelope, a plain request does not.
func TestExplainOverHTTP(t *testing.T) {
	sys, err := flexsp.NewSystem(flexsp.Config{Devices: 8, Model: flexsp.GPT7B})
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
	rng := rand.New(rand.NewSource(21))
	batch := flexsp.CommonCrawl().Batch(rng, 16, 32<<10)

	env, err := client.Plan(context.Background(), flexsp.PlanRequest{Lengths: batch, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if env.Explain == nil {
		t.Fatal("explain=true envelope carries no provenance")
	}
	if env.Explain.Strategy != flexsp.StrategyFlexSP || len(env.Explain.Micro) == 0 {
		t.Fatalf("explain strategy %q, %d micro entries", env.Explain.Strategy, len(env.Explain.Micro))
	}

	plain, err := client.Plan(context.Background(), flexsp.PlanRequest{Lengths: batch})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Explain != nil {
		t.Fatal("plain envelope unexpectedly carries provenance")
	}
}
