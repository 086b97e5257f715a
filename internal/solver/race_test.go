package solver

import (
	"math/rand"
	"sync"
	"testing"

	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/planner"
	"flexsp/internal/workload"
)

// Hammer the disaggregated Service and the shared PlanCache from many
// goroutines at once. Run with -race; the assertions check that the
// hit/miss/creation accounting stays consistent under contention and that
// every submitted batch yields exactly one in-order result.
func TestServiceAndCacheConcurrency(t *testing.T) {
	coeffs := costmodel.Profile(costmodel.GPT7B, cluster.A100Cluster(16))
	inner := New(planner.New(coeffs))
	cache := NewPlanCache(256, 256)
	inner.Cache = cache
	sv := NewService(inner, 4)
	defer sv.Close()

	const producers, perProducer = 4, 8
	rng := rand.New(rand.NewSource(21))
	// Pre-draw batches from a small pool so the cache sees repeats.
	pool := make([][]int, 6)
	for i := range pool {
		pool[i] = workload.Wikipedia().Batch(rng, 24, 32<<10)
	}
	batches := make([][]int, producers*perProducer)
	for i := range batches {
		batches[i] = pool[rng.Intn(len(pool))]
	}

	// Producers submit concurrently; Submit assigns the sequence number, so
	// consumption order is whatever order the submissions won.
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				sv.Submit(batches[p*perProducer+i])
			}
		}(p)
	}

	// Concurrent consumer: drain all results while submissions are racing.
	done := make(chan error, 1)
	go func() {
		for i := 0; i < producers*perProducer; i++ {
			if _, err := sv.Next(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := sv.Pending(); n != 0 {
		t.Fatalf("%d results left pending", n)
	}

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
// shared by all Service workers. Plan used to write the default bucket count
// through the shared pointer on first use — a data race under concurrent
// workers. Run with -race; the planner must also never see the write.
func TestServiceZeroQPlannerConcurrency(t *testing.T) {
	coeffs := costmodel.Profile(costmodel.GPT7B, cluster.A100Cluster(16))
	shared := &planner.Planner{Coeffs: coeffs} // Q == 0 on purpose
	sv := NewService(New(shared), 4)
	defer sv.Close()

	rng := rand.New(rand.NewSource(5))
	const batches = 16
	for i := 0; i < batches; i++ {
		sv.Submit(workload.Wikipedia().Batch(rng, 24, 32<<10))
	}
	for i := 0; i < batches; i++ {
		if _, err := sv.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if shared.Q != 0 {
		t.Fatalf("solver workers mutated the shared planner's Q to %d", shared.Q)
	}
}
