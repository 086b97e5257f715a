package solver

import (
	"math/rand"
	"testing"

	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/planner"
	"flexsp/internal/workload"
)

func TestPlanCacheHitAndRetarget(t *testing.T) {
	c := costmodel.Profile(costmodel.GPT7B, cluster.A100Cluster(64))
	pl := planner.New(c)
	cache := NewPlanCache(16, 256)

	lens := []int{40 << 10, 8 << 10, 8 << 10, 4 << 10}
	p, err := pl.Plan(lens)
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(lens, p)

	// Slightly perturbed lengths within the rounding granularity hit.
	perturbed := []int{40<<10 - 100, 8<<10 - 3, 8<<10 - 50, 4<<10 - 7}
	got, ok := cache.Get(c.Pricing(), perturbed)
	if !ok {
		t.Fatal("expected cache hit for rounded-equal batch")
	}
	if err := got.Validate(c.Pricing(), perturbed); err != nil {
		t.Fatalf("re-targeted plan invalid: %v", err)
	}
	if len(got.Degrees()) != len(p.Degrees()) {
		t.Fatalf("shape changed: %v vs %v", got.Degrees(), p.Degrees())
	}

	// A different multiset misses.
	if _, ok := cache.Get(c.Pricing(), []int{100 << 10}); ok {
		t.Fatal("unexpected hit")
	}
	hits, misses := cache.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = (%d,%d)", hits, misses)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	cache := NewPlanCache(2, 256)
	cache.Put([]int{1000}, planner.MicroPlan{})
	cache.Put([]int{2000}, planner.MicroPlan{})
	cache.Put([]int{3000}, planner.MicroPlan{})
	if cache.Len() != 2 {
		t.Fatalf("Len = %d, want 2 after eviction", cache.Len())
	}
	if ev := cache.Metrics().Evictions; ev != 1 {
		t.Fatalf("Evictions = %d, want 1", ev)
	}
}

// Eviction must follow recency, not insertion order: a Get refreshes the
// entry, so the least-recently-used one goes first.
func TestPlanCacheLRUOrder(t *testing.T) {
	c := costmodel.Profile(costmodel.GPT7B, cluster.A100Cluster(8))
	cache := NewPlanCache(2, 256)
	planFor := func(lens []int) planner.MicroPlan {
		return planner.MicroPlan{Groups: []planner.Group{{Degree: 8, Lens: lens}}}
	}
	a, b, x := []int{1000}, []int{2000}, []int{3000}
	cache.Put(a, planFor(a))
	cache.Put(b, planFor(b))
	if _, ok := cache.Get(c.Pricing(), a); !ok { // touch a: b becomes LRU
		t.Fatal("expected hit on a")
	}
	cache.Put(x, planFor(x)) // evicts b, not a
	if _, ok := cache.Get(c.Pricing(), a); !ok {
		t.Fatal("a should have survived eviction (recently used)")
	}
	if _, ok := cache.Get(c.Pricing(), b); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
}

// The sharded configuration must still bound the entry count and keep
// per-signature lookups exact.
func TestPlanCacheShardedLimit(t *testing.T) {
	c := costmodel.Profile(costmodel.GPT7B, cluster.A100Cluster(64))
	const limit = 128
	cache := NewPlanCache(limit, 256)
	for i := 0; i < 4*limit; i++ {
		lens := []int{1000 + 300*i}
		cache.Put(lens, planner.MicroPlan{Groups: []planner.Group{{Degree: 64, Lens: lens}}})
	}
	if n := cache.Len(); n > limit {
		t.Fatalf("Len = %d exceeds limit %d", n, limit)
	}
	// Recently inserted signatures must still resolve exactly.
	lens := []int{1000 + 300*(4*limit-1)}
	if _, ok := cache.Get(c.Pricing(), lens); !ok {
		t.Fatal("most recent entry missing")
	}
	m := cache.Metrics()
	if m.Entries != cache.Len() || m.Evictions == 0 {
		t.Fatalf("metrics inconsistent: %+v", m)
	}
}

// A solve whose trials share micro-batches must keep the hit rate accounting
// consistent.
func TestPlanCacheDedupStats(t *testing.T) {
	c := costmodel.Profile(costmodel.GPT7B, cluster.A100Cluster(64))
	s := New(planner.New(c))
	s.Cache = NewPlanCache(1024, 256)
	rng := rand.New(rand.NewSource(11))
	batch := workload.CommonCrawl().Batch(rng, 256, 128<<10)
	if _, err := s.Solve(batch); err != nil {
		t.Fatal(err)
	}
	m := s.Cache.Metrics()
	if m.Hits+m.Misses == 0 {
		t.Fatal("no cache traffic recorded")
	}
	if m.HitRate() < 0 || m.HitRate() > 1 {
		t.Fatalf("hit rate %v out of range", m.HitRate())
	}
	hits, misses := s.Cache.Stats()
	if int64(hits) != m.Hits || int64(misses) != m.Misses {
		t.Fatalf("Stats (%d,%d) disagrees with Metrics %+v", hits, misses, m)
	}
}

func TestSolverWithCacheMatchesWithout(t *testing.T) {
	c := costmodel.Profile(costmodel.GPT7B, cluster.A100Cluster(64))
	rng := rand.New(rand.NewSource(9))
	batch := workload.CommonCrawl().Batch(rng, 128, 64<<10)

	plain := New(planner.New(c))
	base, err := plain.Solve(batch)
	if err != nil {
		t.Fatal(err)
	}

	cached := New(planner.New(c))
	cached.Cache = NewPlanCache(0, 0)
	// First solve warms the cache; second must reuse it and stay valid.
	if _, err := cached.Solve(batch); err != nil {
		t.Fatal(err)
	}
	again, err := cached.Solve(batch)
	if err != nil {
		t.Fatal(err)
	}
	hits, _ := cached.Cache.Stats()
	if hits == 0 {
		t.Fatal("second solve should hit the cache")
	}
	// Same batch → same micro-batch count and (nearly) same estimate.
	if again.M != base.M {
		t.Fatalf("cached M=%d, plain M=%d", again.M, base.M)
	}
	if diff := again.Time - base.Time; diff > base.Time*0.01 || diff < -base.Time*0.01 {
		t.Fatalf("cached estimate %.3f deviates from plain %.3f", again.Time, base.Time)
	}
	// Every plan still covers its sequences exactly.
	want := map[int]int{}
	for _, l := range batch {
		want[l]++
	}
	for _, p := range again.Plans {
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
}
