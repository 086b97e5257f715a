// Compile-checked versions of the README snippets: each Example mirrors a
// documented usage, so the docs break the build instead of rotting.
package flexsp_test

import (
	"context"
	"fmt"
	"math/rand"

	"flexsp"
)

// Example_quickstart is the README quickstart: build a system (errors, not
// panics, on bad configuration), plan one varied-length batch through the
// unified entry point, execute the heterogeneous SP plans.
func Example_quickstart() {
	sys, err := flexsp.NewSystem(flexsp.Config{Devices: 64, Model: flexsp.GPT7B})
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	batch := flexsp.CommonCrawl().Batch(rng, 128, 192<<10)

	plan, err := sys.Plan(ctx, batch, flexsp.PlanOptions{}) // default strategy: flexsp
	if err != nil {
		panic(err)
	}
	exec, err := plan.Execute(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Println(plan.Strategy(), len(plan.MicroPlans()) > 0, exec.Time > 0)
	// Output: flexsp true true
}

// Example_strategies is the README registry snippet: every system of the
// paper's evaluation is a named strategy behind the same Plan call.
func Example_strategies() {
	sys := flexsp.MustNewSystem(flexsp.Config{Devices: 64, Model: flexsp.GPT7B})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	batch := flexsp.CommonCrawl().Batch(rng, 128, 192<<10)

	for _, name := range flexsp.Strategies() {
		plan, err := sys.Plan(ctx, batch, flexsp.PlanOptions{Strategy: name, MaxCtx: 192 << 10})
		if err != nil {
			panic(err)
		}
		exec, err := plan.Execute(ctx)
		if err != nil {
			panic(err)
		}
		fmt.Println(name, plan.EstTime() > 0, exec.Time > 0)
	}
	// Output:
	// batchada true true
	// deepspeed true true
	// flexsp true true
	// megatron true true
	// pipeline true true
	// ring true true
}

// Example_pipelined is the README hybrid PP×SP snippet: the pipeline
// strategy sweeps PP degrees, plans flexible SP per stage, and executes the
// winning 1F1B schedule.
func Example_pipelined() {
	sys := flexsp.MustNewSystem(flexsp.Config{Devices: 64, Model: flexsp.GPT7B})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	batch := flexsp.CommonCrawl().Batch(rng, 128, 192<<10)

	plan, err := sys.Plan(ctx, batch, flexsp.PlanOptions{Strategy: flexsp.StrategyPipeline})
	if err != nil {
		panic(err)
	}
	sched, err := plan.Execute(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Println(plan.EstTime() > 0, sched.Time > 0, sched.BubbleFrac >= 0)
	// Output: true true true
}

// Example_streaming is the README streaming quickstart: sequences arrive
// incrementally, the last expected one starts a background solve of the
// batch, and Close returns a plan byte-identical to the one-shot path.
func Example_streaming() {
	sys := flexsp.MustNewSystem(flexsp.Config{Devices: 64, Model: flexsp.GPT7B})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	batch := flexsp.CommonCrawl().Batch(rng, 128, 192<<10)

	st, err := sys.PlanStream(flexsp.StreamOptions{Expect: len(batch)})
	if err != nil {
		panic(err)
	}
	for _, l := range batch { // sequences arrive one at a time
		if _, err := st.Append(l); err != nil {
			panic(err)
		}
	}
	plan, err := st.Close(ctx) // the background solve's plan
	if err != nil {
		panic(err)
	}
	fmt.Println(plan.Strategy(), len(plan.MicroPlans()) > 0)
	// Output: flexsp true
}

// Example_mixedCluster is the README mixed-cluster snippet: a heterogeneous
// fleet by spec, placement-aware planning, per-range costing on execution.
func Example_mixedCluster() {
	sys := flexsp.MustNewSystem(flexsp.Config{Cluster: "mixed:32xA100,32xH100", Model: flexsp.GPT7B})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	batch := flexsp.CommonCrawl().Batch(rng, 128, 192<<10)

	plan, err := sys.Plan(ctx, batch, flexsp.PlanOptions{}) // groups carry placed device ranges
	if err != nil {
		panic(err)
	}
	exec, err := plan.Execute(ctx) // per-range device-class costing
	if err != nil {
		panic(err)
	}
	placed := true
	for _, mp := range plan.MicroPlans() {
		for _, g := range mp.Groups {
			placed = placed && g.Placed()
		}
	}
	fmt.Println(placed, exec.Time > 0)
	// Output: true true
}
