package solver

import (
	"math/rand"
	"testing"

	"flexsp/internal/blaster"
	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/planner"
	"flexsp/internal/sim"
	"flexsp/internal/workload"
)

func newSolver() *Solver {
	c := costmodel.Profile(costmodel.GPT7B, cluster.A100Cluster(64))
	return New(planner.New(c))
}

func TestSolveEmptyBatch(t *testing.T) {
	s := newSolver()
	res, err := s.Solve(nil)
	if err != nil || len(res.Plans) != 0 {
		t.Fatalf("res %+v err %v", res, err)
	}
}

func TestSolveFullBatch(t *testing.T) {
	s := newSolver()
	rng := rand.New(rand.NewSource(2))
	batch := workload.CommonCrawl().Batch(rng, 512, 192<<10)
	res, err := s.Solve(batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.M < res.MMin {
		t.Fatalf("chose M=%d below M_min=%d", res.M, res.MMin)
	}
	// Every sequence covered exactly once across micro-batches.
	want := map[int]int{}
	for _, l := range batch {
		want[l]++
	}
	for _, p := range res.Plans {
		for _, g := range p.Groups {
			for _, l := range g.Lens {
				want[l]--
			}
		}
	}
	for l, n := range want {
		if n != 0 {
			t.Fatalf("sequence %d unbalanced by %d", l, n)
		}
	}
	// The chosen plan must execute without OOM.
	if _, err := sim.ExecuteIteration(s.Planner.Coeffs, res.Plans, sim.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveRespectsMMin(t *testing.T) {
	s := newSolver()
	rng := rand.New(rand.NewSource(3))
	batch := workload.GitHub().Batch(rng, 512, 192<<10)
	mmin := blaster.MinMicroBatches(batch, s.Planner.Coeffs.ClusterTokenCapacity())
	res, err := s.Solve(batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.MMin != mmin {
		t.Fatalf("MMin = %d, want %d", res.MMin, mmin)
	}
	if res.M >= mmin+s.Trials {
		t.Fatalf("M = %d outside trial window [%d, %d)", res.M, mmin, mmin+s.Trials)
	}
}

func TestSolveUnsolvable(t *testing.T) {
	c := costmodel.Profile(costmodel.GPT7B, cluster.A100Cluster(8))
	s := New(planner.New(c))
	if _, err := s.Solve([]int{1 << 20}); err == nil {
		t.Fatal("oversized sequence should be unsolvable")
	}
}

func TestSortAblationChangesPlans(t *testing.T) {
	s := newSolver()
	rng := rand.New(rand.NewSource(5))
	batch := workload.GitHub().Batch(rng, 384, 192<<10)
	sorted, err := s.Solve(batch)
	if err != nil {
		t.Fatal(err)
	}
	s.Sort = false
	unsorted, err := s.Solve(batch)
	if err != nil {
		t.Fatal(err)
	}
	// Takeaway #2: sorting lowers (or at worst matches) the estimate.
	if sorted.Time > unsorted.Time*1.02 {
		t.Fatalf("sorted solve %.3fs should not lose to unsorted %.3fs",
			sorted.Time, unsorted.Time)
	}
}

// TestWideningFallback forces the [M_min, M_min+M′) window to be infeasible
// (a single coarse bucket inflates every sequence to the batch maximum) so
// the solver must widen the micro-batch count. The widened search goes
// through the same runTrial path as the window: it must honour Sort, reuse
// the plan cache, and return a feasible plan.
func TestWideningFallback(t *testing.T) {
	c := costmodel.Profile(costmodel.GPT7B, cluster.A100Cluster(8))
	mk := func(sorted bool, cache *PlanCache) *Solver {
		pl := planner.New(c)
		pl.Q = 1 // one bucket: reps round up to the longest sequence
		s := New(pl)
		s.Trials = 1
		s.Sort = sorted
		s.Cache = cache
		return s
	}
	batch := []int{24 << 10}
	for i := 0; i < 40; i++ {
		batch = append(batch, 1<<10+32*i)
	}

	s := mk(true, nil)
	mmin := blaster.MinMicroBatches(batch, s.Planner.TokenCapacity())
	res, err := s.Solve(batch)
	if err != nil {
		t.Fatalf("widened solve failed: %v", err)
	}
	if res.M < mmin+s.Trials {
		t.Fatalf("M = %d inside the supposedly infeasible window [%d, %d)", res.M, mmin, mmin+s.Trials)
	}
	// Coverage: every sequence appears exactly once.
	want := map[int]int{}
	for _, l := range batch {
		want[l]++
	}
	for _, p := range res.Plans {
		for _, g := range p.Groups {
			for _, l := range g.Lens {
				want[l]--
			}
		}
	}
	for l, n := range want {
		if n != 0 {
			t.Fatalf("sequence %d unbalanced by %d", l, n)
		}
	}

	// The fallback must honour the Sort ablation (it used to bypass it), and
	// must populate the cache when present.
	if _, err := mk(false, nil).Solve(batch); err != nil {
		t.Fatalf("unsorted fallback failed: %v", err)
	}
	cache := NewPlanCache(64, 256)
	if _, err := mk(true, cache).Solve(batch); err != nil {
		t.Fatal(err)
	}
	if cache.Len() == 0 {
		t.Fatal("widened fallback did not populate the plan cache")
	}
}
