// Serve: run the planning daemon in-process and hit it like a training job
// would — submit a batch over HTTP, receive placed plans, execute them on
// the simulated cluster, and read the daemon's metrics.
//
// Against a separately started daemon (`go run ./cmd/flexsp-serve`), point
// flexsp.NewClient at its address instead of the loopback listener below.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"

	"flexsp"
)

func main() {
	// One long-lived daemon, many trainers: the server side is a System
	// like any other, plus serving limits.
	sys, err := flexsp.NewSystem(flexsp.Config{
		Devices: 64,
		Model:   flexsp.GPT7B,
		Serve:   flexsp.ServeConfig{QueueLimit: 128, TenantLimit: 16},
	})
	if err != nil {
		panic(err)
	}
	srv, err := sys.NewServer()
	if err != nil {
		panic(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	httpSrv := &http.Server{Handler: srv}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()

	client := flexsp.NewClient("http://" + ln.Addr().String())
	client.Tenant = "example"
	ctx := context.Background()
	if err := client.Health(ctx); err != nil {
		panic(err)
	}

	// A training job submits its next batch's sequence lengths and gets
	// the placed plans back.
	rng := rand.New(rand.NewSource(1))
	batch := flexsp.CommonCrawl().Batch(rng, 128, 192<<10)
	env, err := client.Plan(ctx, flexsp.PlanRequest{Lengths: batch})
	if err != nil {
		panic(err)
	}
	fmt.Printf("daemon planned M=%d micro-batches, estimated %.2fs\n", env.Flat.M, env.EstTime)

	// The wire plans convert straight back into executable micro-plans.
	exec, err := sys.Execute(env.Plans())
	if err != nil {
		panic(err)
	}
	fmt.Printf("executed: %.2fs end-to-end, %.1f%% All-to-All\n",
		exec.Time, 100*exec.AllToAllShare())

	// The same endpoint serves any registered strategy by name: the daemon
	// plans the DeepSpeed baseline on request.
	ds, err := client.Plan(ctx, flexsp.PlanRequest{
		Strategy: "deepspeed", Lengths: batch, MaxCtx: 192 << 10})
	if err != nil {
		panic(err)
	}
	fmt.Printf("v2 %s envelope: version %d, estimated %.2fs, %d micro-plans\n",
		ds.Strategy, ds.Version, ds.EstTime, len(ds.Plans()))

	// A second identical submission is served from the shared plan cache.
	if _, err := client.Plan(ctx, flexsp.PlanRequest{Lengths: batch}); err != nil {
		panic(err)
	}
	m, err := client.Metrics(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Printf("daemon metrics: %d requests, %d solver passes, cache hit rate %.0f%%\n",
		m.Requests, m.Solves, 100*m.CacheHitRate)
}
