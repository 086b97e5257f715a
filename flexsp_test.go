package flexsp

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

func TestSystemEndToEnd(t *testing.T) {
	sys := MustNewSystem(Config{Devices: 64, Model: GPT7B})
	rng := rand.New(rand.NewSource(1))
	batch := CommonCrawl().Batch(rng, 128, 192<<10)
	ctx := context.Background()

	plan, err := sys.Plan(ctx, batch, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strategy() != StrategyFlexSP {
		t.Fatalf("default strategy = %q", plan.Strategy())
	}
	if len(plan.MicroPlans()) == 0 || plan.MicroBatches() != len(plan.MicroPlans()) {
		t.Fatalf("micro plans %d / batches %d", len(plan.MicroPlans()), plan.MicroBatches())
	}
	// Strategy names are case-insensitive.
	if _, err := sys.Plan(ctx, batch, PlanOptions{Strategy: "FlexSP"}); err != nil {
		t.Fatalf("case-insensitive strategy lookup failed: %v", err)
	}
	exec, err := plan.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if exec.Time <= 0 {
		t.Fatalf("bad execution time %v", exec.Time)
	}
	// Re-execution reuses cached communicators: no creation cost.
	exec2, err := plan.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if exec2.GroupCreation != 0 {
		t.Fatalf("second execution created groups: %v", exec2.GroupCreation)
	}
	if exec2.Time >= exec.Time {
		t.Fatal("warm execution should be faster than cold")
	}
}

func TestSystemDefaults(t *testing.T) {
	sys, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Topo.NumDevices() != 64 {
		t.Fatalf("default devices = %d", sys.Topo.NumDevices())
	}
	if sys.Coeffs.Model.Name != "GPT-7B" {
		t.Fatalf("default model = %s", sys.Coeffs.Model.Name)
	}
}

// Every registered strategy must plan and execute through the one Plan entry
// point, on both a homogeneous and a mixed cluster (the acceptance criterion
// of the v2 API).
func TestPlanAllStrategies(t *testing.T) {
	ctx := context.Background()
	for _, spec := range []Config{
		{Devices: 32, Model: GPT7B},
		{Cluster: "mixed:16xA100,16xH100", Model: GPT7B},
	} {
		sys := MustNewSystem(spec)
		rng := rand.New(rand.NewSource(11))
		batch := CommonCrawl().Batch(rng, 64, 64<<10)
		for _, name := range Strategies() {
			plan, err := sys.Plan(ctx, batch, PlanOptions{Strategy: name, MaxCtx: 64 << 10})
			if err != nil {
				t.Fatalf("cluster %q strategy %q: %v", spec.Cluster, name, err)
			}
			if plan.Strategy() != name {
				t.Fatalf("plan reports strategy %q, want %q", plan.Strategy(), name)
			}
			if plan.EstTime() <= 0 {
				t.Fatalf("strategy %q: estimated time %v", name, plan.EstTime())
			}
			if plan.Describe() == "" {
				t.Fatalf("strategy %q: empty description", name)
			}
			if name != StrategyMegatron && len(plan.MicroPlans()) == 0 {
				t.Fatalf("strategy %q: no micro-plans", name)
			}
			exec, err := plan.Execute(ctx)
			if err != nil {
				t.Fatalf("cluster %q strategy %q execute: %v", spec.Cluster, name, err)
			}
			if exec.Time <= 0 || exec.OOM {
				t.Fatalf("strategy %q: exec time %v oom %v", name, exec.Time, exec.OOM)
			}
		}
	}
}

func TestPlanUnknownStrategy(t *testing.T) {
	sys := MustNewSystem(Config{Devices: 8})
	_, err := sys.Plan(context.Background(), []int{1024}, PlanOptions{Strategy: "nope"})
	if err == nil || !strings.Contains(err.Error(), `unknown strategy "nope"`) {
		t.Fatalf("err = %v", err)
	}
	// The error names the registered strategies.
	if !strings.Contains(err.Error(), StrategyFlexSP) {
		t.Fatalf("err %v does not list registered strategies", err)
	}
}

func TestPlanContextCanceled(t *testing.T) {
	sys := MustNewSystem(Config{Devices: 64})
	rng := rand.New(rand.NewSource(5))
	batch := CommonCrawl().Batch(rng, 128, 192<<10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{StrategyFlexSP, StrategyPipeline} {
		if _, err := sys.Plan(ctx, batch, PlanOptions{Strategy: name}); !errors.Is(err, context.Canceled) {
			t.Fatalf("strategy %q: err = %v, want context.Canceled", name, err)
		}
	}
	plan, err := sys.Plan(context.Background(), batch, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute err = %v, want context.Canceled", err)
	}
}

func TestRegisterStrategy(t *testing.T) {
	if err := RegisterStrategy("", nil); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := RegisterStrategy("custom-null", nil); err == nil {
		t.Fatal("nil func accepted")
	}
	// The server-native built-ins cannot be replaced (the daemon implements
	// them itself, so an override would diverge in-process vs HTTP).
	for _, name := range []string{StrategyFlexSP, "Pipeline"} {
		err := RegisterStrategy(name, func(ctx context.Context, sys *System, batch []int, opts PlanOptions) (Plan, error) {
			return nil, nil
		})
		if err == nil {
			t.Fatalf("built-in %q override accepted", name)
		}
	}
	called := false
	err := RegisterStrategy("custom-null", func(ctx context.Context, sys *System, batch []int, opts PlanOptions) (Plan, error) {
		called = true
		return newBaselinePlan(sys, "custom-null", nil, 0), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		strategyMu.Lock()
		delete(strategyFuncs, "custom-null")
		strategyMu.Unlock()
	}()
	sys := MustNewSystem(Config{Devices: 8})
	p, err := sys.Plan(context.Background(), nil, PlanOptions{Strategy: "custom-null"})
	if err != nil || !called {
		t.Fatalf("custom strategy not dispatched: %v (called %v)", err, called)
	}
	if p.Strategy() != "custom-null" {
		t.Fatalf("strategy = %q", p.Strategy())
	}
	found := false
	for _, name := range Strategies() {
		if name == "custom-null" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered strategy missing from Strategies()")
	}
}

func TestSystemTrainLoop(t *testing.T) {
	sys := MustNewSystem(Config{Devices: 64, IncludeZeRO: true})
	rng := rand.New(rand.NewSource(2))
	results, err := sys.Train(context.Background(), 2, PlanOptions{}, func(int) []int {
		return Wikipedia().Batch(rng, 96, 64<<10)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d iteration results", len(results))
	}
	for _, r := range results {
		if r.ZeRO <= 0 {
			t.Fatal("ZeRO cost not charged")
		}
	}
}

func TestSystemPipelined(t *testing.T) {
	sys := MustNewSystem(Config{Devices: 64, Model: GPT30B, IncludeZeRO: true})
	rng := rand.New(rand.NewSource(9))
	batch := CommonCrawl().Batch(rng, 64, 192<<10)
	ctx := context.Background()

	plan, err := sys.Plan(ctx, batch, PlanOptions{Strategy: StrategyPipeline})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := sys.Plan(ctx, batch, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The joint plan must match or beat the flat plan's estimate (PP=1 is
	// in its sweep, simulated with the same cost model).
	if plan.EstTime() > flat.EstTime()*1.001 {
		t.Fatalf("joint %.2fs loses to flat estimate %.2fs", plan.EstTime(), flat.EstTime())
	}
	if !strings.HasPrefix(plan.Describe(), "PP=") {
		t.Fatalf("pipelined description %q", plan.Describe())
	}
	// MicroBatches reports M, not the PP-flattened stage-plan count.
	if m := plan.MicroBatches(); m == 0 || len(plan.MicroPlans())%m != 0 {
		t.Fatalf("micro batches %d does not divide %d stage plans", m, len(plan.MicroPlans()))
	}
	exec, err := plan.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if exec.Time <= 0 {
		t.Fatalf("bad execution time %v", exec.Time)
	}
	// Re-execution reuses cached communicators (hot switching).
	exec2, err := plan.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if exec2.GroupCreation != 0 {
		t.Fatalf("second pipelined execution created groups: %v", exec2.GroupCreation)
	}
}

// FlexSP end-to-end vs baselines on a skewed batch: the paper's headline
// comparison in miniature, all through the strategy registry. FlexSP must be
// at least as fast as BatchAda, which must beat static DeepSpeed.
func TestSystemBeatsBaselines(t *testing.T) {
	sys := MustNewSystem(Config{Devices: 64})
	rng := rand.New(rand.NewSource(3))
	batch := CommonCrawl().Batch(rng, 256, 384<<10)
	ctx := context.Background()

	est := make(map[string]float64)
	for _, name := range []string{StrategyFlexSP, StrategyDeepSpeed, StrategyBatchAda, StrategyMegatron} {
		plan, err := sys.Plan(ctx, batch, PlanOptions{Strategy: name, MaxCtx: 384 << 10})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		est[name] = plan.EstTime()
	}
	if est[StrategyFlexSP] > est[StrategyBatchAda]*1.001 {
		t.Fatalf("FlexSP %.2fs should not lose to BatchAda %.2fs", est[StrategyFlexSP], est[StrategyBatchAda])
	}
	if est[StrategyBatchAda] > est[StrategyDeepSpeed]*1.001 {
		t.Fatalf("BatchAda %.2fs should not lose to DeepSpeed %.2fs", est[StrategyBatchAda], est[StrategyDeepSpeed])
	}
	if est[StrategyFlexSP] >= est[StrategyDeepSpeed] {
		t.Fatalf("FlexSP %.2fs should beat DeepSpeed %.2fs outright", est[StrategyFlexSP], est[StrategyDeepSpeed])
	}
	if est[StrategyMegatron] <= est[StrategyFlexSP] {
		t.Logf("note: Megatron %.2fs vs FlexSP %.2fs", est[StrategyMegatron], est[StrategyFlexSP])
	}
}

// A mixed-cluster System plans placement-aware and executes on the real
// fleet; a single-class spec takes the legacy scalar path.
func TestHeterogeneousSystem(t *testing.T) {
	sys := MustNewSystem(Config{Cluster: "mixed:16xA100,16xH100", Model: GPT7B})
	if sys.Hetero == nil {
		t.Fatal("mixed spec did not enable the heterogeneous path")
	}
	if sys.Topo.NumDevices() != 32 {
		t.Fatalf("topo has %d devices", sys.Topo.NumDevices())
	}
	rng := rand.New(rand.NewSource(2))
	batch := CommonCrawl().Batch(rng, 64, 64<<10)
	ctx := context.Background()
	plan, err := sys.Plan(ctx, batch, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plan.MicroPlans() {
		var lens []int
		for _, g := range p.Groups {
			lens = append(lens, g.Lens...)
		}
		if err := p.Validate(sys.Hetero.Pricing(), lens); err != nil {
			t.Fatal(err)
		}
	}
	placed := 0
	for _, p := range plan.MicroPlans() {
		for _, g := range p.Groups {
			if g.Placed() {
				placed++
			}
		}
	}
	if placed == 0 {
		t.Fatal("no placed groups in mixed-cluster plans")
	}
	exec, err := plan.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if exec.Time <= 0 || exec.PeakMemFrac > 1 {
		t.Fatalf("bad execution: time %v, peak mem %v", exec.Time, exec.PeakMemFrac)
	}

	// Single-class spec: scalar path, identical to the Devices constructor.
	uni := MustNewSystem(Config{Cluster: "64xA100", Model: GPT7B})
	if uni.Hetero != nil {
		t.Fatal("single-class spec took the heterogeneous path")
	}
	legacy := MustNewSystem(Config{Devices: 64, Model: GPT7B})
	if uni.Coeffs != legacy.Coeffs {
		t.Fatal("single-class spec coeffs differ from the legacy constructor")
	}
}

// Honest construction: invalid configurations are errors, not panics, and
// Config.Validate catches them up front.
func TestNewSystemInvalid(t *testing.T) {
	cases := []Config{
		{Cluster: "mixed:banana"},
		{Devices: -3},
		{Devices: 12}, // neither < 8 nor a multiple of 8
		{Trials: -1},
		{Pipeline: PipelineConfig{Degrees: []int{0}}},
	}
	for i, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, cfg)
		}
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("case %d: NewSystem accepted %+v", i, cfg)
		}
	}
}

func TestMustNewSystemPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewSystem did not panic on an invalid config")
		}
	}()
	MustNewSystem(Config{Cluster: "mixed:banana"})
}
