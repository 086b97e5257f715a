package solver

import (
	"context"
	"math/rand"
	"testing"

	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/planner"
	"flexsp/internal/sim"
	"flexsp/internal/workload"
)

// elasticFixture is an elastic A100 fleet plus a solver factory producing a
// hetero solver with a plan cache for any snapshot.
func elasticFixture(t *testing.T, nodes int) (*cluster.Elastic, func(cluster.Snapshot) (*Solver, costmodel.HeteroCoeffs)) {
	t.Helper()
	m, err := cluster.MixedCluster(cluster.ClassCount{Class: cluster.A100_40G, Devices: nodes * 8})
	if err != nil {
		t.Fatalf("MixedCluster: %v", err)
	}
	e, err := cluster.NewElastic(m)
	if err != nil {
		t.Fatalf("NewElastic: %v", err)
	}
	mk := func(snap cluster.Snapshot) (*Solver, costmodel.HeteroCoeffs) {
		h := costmodel.ProfileMixed(costmodel.GPT7B, snap.Mixed)
		s := New(planner.NewHetero(h))
		s.Cache = NewPlanCache(4096, 256)
		return s, h
	}
	return e, mk
}

func resolveBatch(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	return workload.CommonCrawl().Batch(rng, n, 192<<10)
}

func TestResolveUnchangedTopologyByteIdentical(t *testing.T) {
	e, mk := elasticFixture(t, 4)
	snap := e.Snapshot()
	batch := resolveBatch(5, 96)
	ctx := context.Background()

	warmSv, _ := mk(snap)
	_, inc, err := warmSv.SolveWarm(ctx, batch, nil)
	if err != nil {
		t.Fatalf("SolveWarm: %v", err)
	}
	coldSv, _ := mk(snap)
	cold, err := coldSv.SolveContext(ctx, batch)
	if err != nil {
		t.Fatalf("SolveContext: %v", err)
	}
	reSv, _ := mk(snap)
	res, _, stats, err := reSv.Resolve(ctx, batch, inc, snap, snap, ResolveOptions{})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if stats.Cold {
		t.Fatal("unchanged topology fell back to cold solve")
	}
	if got, want := plansJSON(t, res), plansJSON(t, cold); got != want {
		t.Fatalf("unchanged-topology Resolve diverged from cold solve:\n got %s\nwant %s", got, want)
	}
}

func TestResolveNodeLossRepairs(t *testing.T) {
	e, mk := elasticFixture(t, 4)
	snap0 := e.Snapshot()
	batch := resolveBatch(7, 96)
	ctx := context.Background()

	sv0, _ := mk(snap0)
	res0, inc0, err := sv0.SolveWarm(ctx, batch, nil)
	if err != nil {
		t.Fatalf("SolveWarm: %v", err)
	}
	if _, err := e.Apply(cluster.Event{Kind: cluster.EventNodeDown, Node: 1}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	snap1 := e.Snapshot()
	sv1, h1 := mk(snap1)
	res, inc, stats, err := sv1.Resolve(ctx, batch, inc0, snap0, snap1, ResolveOptions{})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if stats.Cold {
		t.Fatal("single-node loss fell back to cold solve")
	}
	if stats.RepairedPlans == 0 {
		t.Fatalf("no plans repaired: %+v", stats)
	}
	if stats.WarmHits == 0 {
		t.Fatalf("repaired store produced no warm hits: %+v", stats)
	}
	if inc == nil || len(res.Plans) == 0 {
		t.Fatal("empty resolve result")
	}
	// The repaired plans must be executable on the shrunk fleet: in
	// bounds, aligned, non-overlapping, no OOM.
	n := snap1.NumDevices()
	for _, mp := range res.Plans {
		for _, g := range mp.Groups {
			if !g.Placed() || g.Range.End() > n {
				t.Fatalf("group %+v not placed within %d devices", g, n)
			}
		}
	}
	if _, err := sim.ExecuteIterationHetero(h1, res.Plans, sim.Options{}); err != nil {
		t.Fatalf("executing repaired plans: %v", err)
	}
	_ = res0
}

func TestResolveColdFallbacks(t *testing.T) {
	e, mk := elasticFixture(t, 4)
	snap0 := e.Snapshot()
	batch := resolveBatch(9, 64)
	ctx := context.Background()

	sv0, _ := mk(snap0)
	_, inc0, err := sv0.SolveWarm(ctx, batch, nil)
	if err != nil {
		t.Fatalf("SolveWarm: %v", err)
	}

	// Nil incumbent: cold.
	if _, err := e.Apply(cluster.Event{Kind: cluster.EventNodeDown, Node: 0}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	snap1 := e.Snapshot()
	sv1, _ := mk(snap1)
	if _, _, stats, err := sv1.Resolve(ctx, batch, nil, snap0, snap1, ResolveOptions{}); err != nil || !stats.Cold {
		t.Fatalf("nil incumbent: cold=%v err=%v", stats.Cold, err)
	}

	// Delta beyond the threshold: cold.
	sv1b, _ := mk(snap1)
	if _, _, stats, err := sv1b.Resolve(ctx, batch, inc0, snap0, snap1, ResolveOptions{ColdFraction: 0.1}); err != nil || !stats.Cold {
		t.Fatalf("beyond threshold: cold=%v err=%v stats=%+v", stats.Cold, err, stats)
	}
	if got, _ := changedFraction(snap0, snap1); got != 0.25 {
		t.Fatalf("changedFraction = %g, want 0.25", got)
	}

	// Scalar (unplaced) solver: no placement to repair, cold.
	scalar := New(planner.New(costmodel.Profile(costmodel.GPT7B, cluster.A100Cluster(32))))
	_, sinc, err := scalar.SolveWarm(ctx, batch, nil)
	if err != nil {
		t.Fatalf("scalar SolveWarm: %v", err)
	}
	scalar2 := New(planner.New(costmodel.Profile(costmodel.GPT7B, cluster.A100Cluster(32))))
	if _, _, stats, err := scalar2.Resolve(ctx, batch, sinc, snap0, snap1, ResolveOptions{}); err != nil || !stats.Cold {
		t.Fatalf("scalar incumbent: cold=%v err=%v", stats.Cold, err)
	}
}

func TestResolveStraggleDeratesAndRepairs(t *testing.T) {
	e, mk := elasticFixture(t, 4)
	snap0 := e.Snapshot()
	batch := resolveBatch(13, 96)
	ctx := context.Background()

	sv0, _ := mk(snap0)
	_, inc0, err := sv0.SolveWarm(ctx, batch, nil)
	if err != nil {
		t.Fatalf("SolveWarm: %v", err)
	}
	if _, err := e.Apply(cluster.Event{Kind: cluster.EventStraggle, Node: 2, Factor: 2}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	snap1 := e.Snapshot()
	sv1, h1 := mk(snap1)
	res, _, stats, err := sv1.Resolve(ctx, batch, inc0, snap0, snap1, ResolveOptions{})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if stats.Cold {
		t.Fatalf("one straggler of four nodes fell back cold: %+v", stats)
	}
	if _, err := sim.ExecuteIterationHetero(h1, res.Plans, sim.Options{}); err != nil {
		t.Fatalf("executing plans on derated fleet: %v", err)
	}
}

func TestRepairPlanDropsUnrepairable(t *testing.T) {
	e, mk := elasticFixture(t, 2)
	snap0 := e.Snapshot()
	if _, err := e.Apply(cluster.Event{Kind: cluster.EventNodeDown, Node: 1}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	snap1 := e.Snapshot()
	_, h := mk(snap1)
	pr := h.Pricing()
	ev := pr.Evaluator()
	// A 16-wide group cannot exist on an 8-device fleet, and its sequences
	// cannot move: there is no other group.
	mp := planner.MicroPlan{Groups: []planner.Group{{
		Degree: 16, Lens: []int{8192, 4096}, Range: cluster.DeviceRange{Start: 0, Size: 16},
	}}}
	if _, _, ok := repairPlan(pr, ev, snap0, snap1, mp, []int32{8192, 4096}); ok {
		t.Fatal("unrepairable plan repaired")
	}
}
