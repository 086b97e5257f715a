// The README serving snippet, compile-checked: a daemon served over a test
// listener and a flexsp.Client round trip.
package server_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"

	"flexsp"
)

// Example shows the solver-as-a-service round trip: NewServer on the
// serving side, flexsp.NewClient on the training side. A production
// deployment serves the same handler from cmd/flexsp-serve.
func Example() {
	sys, err := flexsp.NewSystem(flexsp.Config{
		Devices: 8,
		Model:   flexsp.GPT7B,
		Serve:   flexsp.ServeConfig{QueueLimit: 32},
	})
	if err != nil {
		panic(err)
	}
	srv, err := sys.NewServer()
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	client := flexsp.NewClient(ts.URL)
	ctx := context.Background()
	if err := client.Health(ctx); err != nil {
		panic(err)
	}

	rng := rand.New(rand.NewSource(1))
	batch := flexsp.CommonCrawl().Batch(rng, 16, 32<<10)
	env, err := client.Plan(ctx, flexsp.PlanRequest{Lengths: batch})
	if err != nil {
		panic(err)
	}
	exec, err := sys.Execute(env.Plans())
	if err != nil {
		panic(err)
	}
	fmt.Println(env.Flat.M >= 1, exec.Time > 0)
	// Output: true true
}
