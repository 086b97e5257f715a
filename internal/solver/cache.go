package solver

import (
	"container/list"
	"sort"
	"sync"
	"sync/atomic"

	"flexsp/internal/costmodel"
	"flexsp/internal/planner"
)

// PlanCache memoizes micro-batch plans by their bucketed length signature.
// Long-tail corpora repeat length distributions across iterations, so the
// solver service can reuse plans for micro-batches whose (rounded) length
// multiset it has seen before — shrinking steady-state solve latency the
// same way FlexSP's disaggregated service amortizes it (§5).
//
// Keys round lengths to a granularity (default 256 tokens) so near-identical
// micro-batches share entries; the cached plan is re-validated against the
// exact lengths before reuse (memory feasibility is monotone in length, so
// rounding up keeps reuse safe).
//
// The cache is sharded: entries map to one of 16 independently locked LRU
// shards by a 64-bit FNV-1a hash of the rounded signature, so overlapping
// solves (prefetching callers, a daemon's concurrent requests) never
// serialize on a single mutex. Hash collisions are detected by comparing the
// stored signature. Hit/miss/dedup/eviction counters are exposed via Stats
// and Metrics.
type PlanCache struct {
	granularity int
	shardLimit  int

	shards []cacheShard

	hits      atomic.Int64
	misses    atomic.Int64
	dedups    atomic.Int64
	evictions atomic.Int64
}

const cacheShards = 16

type cacheShard struct {
	mu      sync.Mutex
	entries map[uint64]*list.Element
	lru     list.List // front = most recently used
}

type cacheEntry struct {
	key  uint64
	sig  []int32 // rounded sorted signature, for collision detection
	plan planner.MicroPlan
}

// NewPlanCache creates a cache holding at most limit entries (default 1024)
// with the given rounding granularity in tokens (default 256).
func NewPlanCache(limit, granularity int) *PlanCache {
	if limit <= 0 {
		limit = 1024
	}
	if granularity <= 0 {
		granularity = 256
	}
	// Small caches keep one shard (an exact global LRU limit); larger ones
	// split into 16 shards of limit/16 entries, trading an exact limit for
	// contention-free concurrent access.
	nShards := cacheShards
	if limit < 4*cacheShards {
		nShards = 1
	}
	pc := &PlanCache{
		granularity: granularity,
		shardLimit:  limit / nShards,
		shards:      make([]cacheShard, nShards),
	}
	if pc.shardLimit < 1 {
		pc.shardLimit = 1
	}
	for i := range pc.shards {
		pc.shards[i].entries = make(map[uint64]*list.Element)
	}
	return pc
}

// signature canonicalizes a micro-batch — lengths rounded up to the
// granularity, sorted — and returns it with its FNV-1a hash.
func (pc *PlanCache) signature(lens []int) ([]int32, uint64) {
	return roundedSig(lens, pc.granularity)
}

// Signature returns the canonical exact-length signature of a batch — the
// sorted length multiset and its FNV-1a hash. It is the one construction
// shared by the plan cache (at its rounding granularity), a solve's repeat
// memo, and the serving layer's request-batching pass keys, so "the same
// batch" means the same thing at every reuse point. Compare the
// returned signatures on hash equality to rule out collisions.
func Signature(lens []int) ([]int32, uint64) {
	return roundedSig(lens, 1)
}

// roundedSig is the one canonical signature construction shared by the cache
// and the exact-signature memos (granularity 1 keeps exact lengths): lengths
// rounded up to the granularity, sorted, with their FNV-1a hash.
func roundedSig(lens []int, granularity int) ([]int32, uint64) {
	sig := make([]int32, len(lens))
	for i, l := range lens {
		sig[i] = int32((l + granularity - 1) / granularity)
	}
	sort.Slice(sig, func(i, j int) bool { return sig[i] < sig[j] })
	h := uint64(14695981039346656037)
	for _, r := range sig {
		h ^= uint64(uint32(r))
		h *= 1099511628211
	}
	return sig, h
}

func (pc *PlanCache) shard(key uint64) *cacheShard {
	return &pc.shards[key%uint64(len(pc.shards))]
}

// SigsEqual reports whether two canonical signatures (see Signature) are
// identical — the collision guard every hash-keyed reuse point applies
// before trusting a 64-bit key match.
func SigsEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Get returns a cached plan re-targeted onto the exact lengths, if present.
// The returned plan assigns the actual sequences following the cached plan's
// group shape (k-th longest sequence goes where the cached k-th longest
// went), then re-validates and re-estimates it under pr, each group priced
// by its device range like a fresh plan. A hit is only counted once the
// retargeted plan is accepted: a lookup whose entry fails re-validation
// behaves as a miss (the caller plans from scratch), so it counts as one.
func (pc *PlanCache) Get(pr costmodel.Pricing, lens []int) (planner.MicroPlan, bool) {
	sig, key := pc.signature(lens)
	sh := pc.shard(key)
	sh.mu.Lock()
	el, ok := sh.entries[key]
	ok = ok && SigsEqual(el.Value.(*cacheEntry).sig, sig) // a hash collision is a miss
	var cached planner.MicroPlan
	if ok {
		cached = el.Value.(*cacheEntry).plan
		sh.lru.MoveToFront(el)
	}
	sh.mu.Unlock()
	if ok {
		if p, ok := retarget(pr, lens, cached); ok {
			pc.hits.Add(1)
			return p, true
		}
	}
	pc.misses.Add(1)
	return planner.MicroPlan{}, false
}

// retarget re-creates the cached plan's shape on the exact lengths: both
// length lists, sorted descending, have equal size by key construction, and
// the k-th longest actual sequence goes to the group that held the k-th
// longest cached one. Placement carries over: each group is checked and
// timed against the range it occupies. It fails on the rounding edge case
// where a group no longer fits, and the caller plans from scratch.
func retarget(pr costmodel.Pricing, lens []int, cached planner.MicroPlan) (planner.MicroPlan, bool) {
	sorted := append([]int(nil), lens...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	type memberRef struct {
		group  int
		cached int
	}
	var refs []memberRef
	for gi, g := range cached.Groups {
		for _, l := range g.Lens {
			refs = append(refs, memberRef{group: gi, cached: l})
		}
	}
	sort.SliceStable(refs, func(i, j int) bool { return refs[i].cached > refs[j].cached })
	groupLens := make([][]int, len(cached.Groups))
	for at, r := range refs {
		groupLens[r.group] = append(groupLens[r.group], sorted[at])
	}
	out := planner.MicroPlan{Groups: make([]planner.Group, 0, len(cached.Groups))}
	for gi, g := range cached.Groups {
		ng := planner.Group{Degree: g.Degree, Lens: groupLens[gi], Range: g.Range}
		c := pr.Group(ng.Range)
		if !c.Fits(ng.Lens, ng.Degree) {
			return planner.MicroPlan{}, false
		}
		out.Groups = append(out.Groups, ng)
		if t := c.GroupTime(ng.Lens, ng.Degree); t > out.Time {
			out.Time = t
		}
	}
	return out, true
}

// Put stores a plan under the micro-batch's signature.
func (pc *PlanCache) Put(lens []int, p planner.MicroPlan) {
	sig, key := pc.signature(lens)
	sh := pc.shard(key)
	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.sig, ent.plan = sig, p
		sh.lru.MoveToFront(el)
		sh.mu.Unlock()
		return
	}
	sh.entries[key] = sh.lru.PushFront(&cacheEntry{key: key, sig: sig, plan: p})
	var evicted bool
	if sh.lru.Len() > pc.shardLimit {
		oldest := sh.lru.Back()
		sh.lru.Remove(oldest)
		delete(sh.entries, oldest.Value.(*cacheEntry).key)
		evicted = true
	}
	sh.mu.Unlock()
	if evicted {
		pc.evictions.Add(1)
	}
}

// noteDedup records one repeat within a solve: a micro-batch answered by the
// plan of an identical one planned earlier in the same solve.
func (pc *PlanCache) noteDedup() { pc.dedups.Add(1) }

// Stats reports cache hits and misses.
func (pc *PlanCache) Stats() (hits, misses int) {
	return int(pc.hits.Load()), int(pc.misses.Load())
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Dedups counts repeats within one solve: micro-batches answered by an
	// identical one planned earlier in the same solve, without a lookup.
	Dedups    int64 `json:"dedups"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// HitRate is hits / (hits + misses), zero when empty.
func (cs CacheStats) HitRate() float64 {
	if cs.Hits+cs.Misses == 0 {
		return 0
	}
	return float64(cs.Hits) / float64(cs.Hits+cs.Misses)
}

// Metrics returns the full counter snapshot. The counters are individually
// atomic; the snapshot is re-read until two consecutive reads agree (bounded)
// so it is point-in-time consistent against concurrent cache traffic.
func (pc *PlanCache) Metrics() CacheStats {
	read := func() CacheStats {
		return CacheStats{
			Hits:      pc.hits.Load(),
			Misses:    pc.misses.Load(),
			Dedups:    pc.dedups.Load(),
			Evictions: pc.evictions.Load(),
			Entries:   pc.Len(),
		}
	}
	prev := read()
	for i := 0; i < 3; i++ {
		cur := read()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}

// Len returns the number of cached entries.
func (pc *PlanCache) Len() int {
	n := 0
	for i := range pc.shards {
		pc.shards[i].mu.Lock()
		n += pc.shards[i].lru.Len()
		pc.shards[i].mu.Unlock()
	}
	return n
}
