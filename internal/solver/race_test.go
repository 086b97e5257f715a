package solver

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/planner"
	"flexsp/internal/workload"
)

// solveConcurrently solves every batch on s from the given number of
// goroutines, each taking an equal share in order, the way a daemon's
// handlers and the facade's prefetching callers share one Solver.
func solveConcurrently(t *testing.T, s *Solver, callers int, batches [][]int) {
	t.Helper()
	per := len(batches) / callers
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, b := range batches[c*per : (c+1)*per] {
				if _, err := s.SolveContext(context.Background(), b); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Hammer one Solver and its shared PlanCache from many goroutines at once.
// Run with -race; the assertions check that every batch solves and that the
// hit/miss/creation accounting stays consistent under contention.
func TestServiceAndCacheConcurrency(t *testing.T) {
	coeffs := costmodel.Profile(costmodel.GPT7B, cluster.A100Cluster(16))
	s := New(planner.New(coeffs))
	cache := NewPlanCache(256, 256)
	s.Cache = cache

	const callers, perCaller = 4, 8
	rng := rand.New(rand.NewSource(21))
	// Pre-draw batches from a small pool so the cache sees repeats.
	pool := make([][]int, 6)
	for i := range pool {
		pool[i] = workload.Wikipedia().Batch(rng, 24, 32<<10)
	}
	batches := make([][]int, callers*perCaller)
	for i := range batches {
		batches[i] = pool[rng.Intn(len(pool))]
	}
	solveConcurrently(t, s, callers, batches)

	hits, misses := cache.Stats()
	if hits+misses == 0 {
		t.Fatal("cache never consulted")
	}
	if hits == 0 {
		t.Fatal("repeated batches produced no cache hits")
	}
	if cache.Len() > 256 {
		t.Fatalf("cache exceeded its limit: %d", cache.Len())
	}

	// Direct PlanCache hammering: concurrent Get/Put on overlapping keys.
	var cwg sync.WaitGroup
	for w := 0; w < 8; w++ {
		cwg.Add(1)
		go func(w int) {
			defer cwg.Done()
			lens := pool[w%len(pool)][:16]
			for i := 0; i < 50; i++ {
				if p, ok := cache.Get(coeffs.Pricing(), lens); ok {
					if len(p.Groups) == 0 {
						t.Error("cached plan with no groups")
						return
					}
				} else {
					pl, err := planner.New(coeffs).Plan(lens)
					if err != nil {
						t.Error(err)
						return
					}
					cache.Put(lens, pl)
				}
			}
		}(w)
	}
	cwg.Wait()
	h2, m2 := cache.Stats()
	if h2 < hits || m2 < misses {
		t.Fatalf("stats went backwards: %d/%d -> %d/%d", hits, misses, h2, m2)
	}
}

// A Planner constructed with the zero value of Q (not via planner.New) is
// shared by every goroutine solving on its Solver. Plan used to write the
// default bucket count through the shared pointer on first use — a data race
// under concurrent solves. Run with -race; the planner must also never see
// the write.
func TestServiceZeroQPlannerConcurrency(t *testing.T) {
	coeffs := costmodel.Profile(costmodel.GPT7B, cluster.A100Cluster(16))
	shared := &planner.Planner{Coeffs: coeffs} // Q == 0 on purpose
	rng := rand.New(rand.NewSource(5))
	batches := make([][]int, 16)
	for i := range batches {
		batches[i] = workload.Wikipedia().Batch(rng, 24, 32<<10)
	}
	solveConcurrently(t, New(shared), 4, batches)
	if shared.Q != 0 {
		t.Fatalf("solver workers mutated the shared planner's Q to %d", shared.Q)
	}
}
