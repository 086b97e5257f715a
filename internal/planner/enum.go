package planner

import (
	"context"
	"math"
	"slices"
	"sort"

	"flexsp/internal/cluster"
	"flexsp/internal/obs"
)

// enumLimit is the device count up to which we exhaustively enumerate group
// configurations (binary partitions of N). Beyond it the planner switches to
// a split/merge local search over configurations.
const enumLimit = 64

// planEnum is the default solver: enumerate (or search) degree multisets,
// place items with LPT, refine the most promising configurations. On a
// mixed fleet every configuration is scanned under each placement bias (see
// placementBiases), its groups priced by the ranges they land on; when every
// range prices alike one unplaced scan per configuration suffices, and a
// range-placing planner puts the winning groups on the configuration's
// lowest-address placement — it covers every group of the configuration,
// so dropping the ones left empty shifts no range. The context is used only
// for span annotation (candidate/refine counts); the search itself is fast
// enough not to need cancellation points.
func (pl *Planner) planEnum(ctx context.Context, lens []int) (MicroPlan, error) {
	if len(lens) == 0 {
		return MicroPlan{}, nil
	}
	span := obs.FromContext(ctx)
	pr := pl.Pricing()
	n := pr.Fleet.Topo.NumDevices()

	maxLen := 0
	for _, l := range lens {
		if l > maxLen {
			maxLen = l
		}
	}
	minDeg := pr.MinDegreeFor(maxLen)
	if minDeg == 0 {
		return MicroPlan{}, ErrInfeasible
	}
	buckets := pl.bucketize(lens)
	if overCapacity(buckets, pr.TokenCapacity()) {
		return MicroPlan{}, ErrInfeasible
	}
	items := itemsFromBuckets(buckets)
	top := refineTop

	type cand struct {
		degrees []int
		ranges  []cluster.DeviceRange
		span    float64
	}
	var cands []cand
	// One reusable assignment scans every candidate; placement is aborted as
	// soon as the running makespan exceeds the k-th best span seen so far
	// (the candidate provably cannot enter the refine set), and per-group
	// derived quantities are memoized across candidates.
	memo := newGroupMemo(pr)
	scan := newAssignmentShell(0)
	prune := newTopkTracker(top)
	tryPlacement := func(degrees []int, ranges []cluster.DeviceRange) {
		abort := math.Inf(1)
		// Homogeneous layouts are always fully evaluated: they enter the
		// refine set regardless of rank.
		if !homogeneous(degrees) {
			abort = prune.threshold()
		}
		scan.reconfigure(memo, degrees, ranges)
		ok, span := scan.placeBounded(items, abort)
		if !ok {
			return
		}
		cands = append(cands, cand{
			degrees: append([]int(nil), degrees...),
			ranges:  append([]cluster.DeviceRange(nil), ranges...),
			span:    span,
		})
		prune.offer(span)
	}
	tryConfig := func(degrees []int) { tryPlacement(degrees, nil) }
	if !pr.Uniform() {
		// Each bias ranks the fleet's slots once per call; a configuration
		// is placed from those rankings and scanned once per distinct range
		// set. Different degree multisets never share a range set, so
		// comparing one configuration's placements with each other is the
		// whole deduplication.
		biases := placementBiases(memo)
		rankings := make([]*cluster.SlotRanking, len(biases))
		for i, bias := range biases {
			rankings[i] = cluster.RankSlots(n, bias)
		}
		bufs := make([][]cluster.DeviceRange, len(biases))
		placed := make([][]cluster.DeviceRange, 0, len(biases))
		at := make([]int, n)
		tryConfig = func(degrees []int) {
			placed = placed[:0]
			for i, rk := range rankings {
				ranges, err := rk.AppendPlace(bufs[i][:0], degrees)
				bufs[i] = ranges
				if err != nil || slices.ContainsFunc(placed, func(prev []cluster.DeviceRange) bool {
					return sameRanges(prev, ranges, at)
				}) {
					continue
				}
				placed = append(placed, ranges)
				tryPlacement(degrees, ranges)
			}
		}
	}

	maxDeg := pr.Fleet.MaxDegree()
	if n <= enumLimit {
		enumeratePartitions(n, maxDeg, minDeg, tryConfig)
	} else {
		for _, cfg := range searchConfigs(n, minDeg, maxDeg) {
			tryConfig(cfg)
		}
	}
	span.SetAttr("candidates", len(cands))
	if len(cands) == 0 {
		return MicroPlan{}, ErrInfeasible
	}

	// Refine the top configurations with local search and keep the best.
	// Homogeneous layouts are always included so the plan never loses to a
	// single-degree baseline merely because LPT under-ranked it.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].span < cands[j].span })
	if top > len(cands) {
		top = len(cands)
	}
	refineSet := append([]cand(nil), cands[:top]...)
	for _, cd := range cands[top:] {
		if homogeneous(cd.degrees) {
			refineSet = append(refineSet, cd)
		}
	}
	span.SetAttr("refined", len(refineSet))
	best := MicroPlan{Time: math.Inf(1)}
	gtMemo := newGroupTimeMemo()
	for _, cd := range refineSet {
		ranges := cd.ranges
		if ranges == nil && pl.Places() {
			placed, err := cluster.PlaceGroups(n, cd.degrees)
			if err != nil {
				return MicroPlan{}, err
			}
			ranges = placed.Ranges
		}
		scan.reconfigure(memo, cd.degrees, ranges)
		if !scan.place(items) {
			continue
		}
		scan.refine(refineIters)
		if p := scan.plan(gtMemo); p.Time < best.Time {
			best = p
		}
	}
	if math.IsInf(best.Time, 1) {
		return MicroPlan{}, ErrInfeasible
	}
	return best, nil
}

// topkTracker maintains the k smallest spans offered so far; threshold() is
// the k-th smallest once k spans have been seen (+Inf before that). A
// candidate whose running span strictly exceeds the threshold can never
// displace the current top k, so its placement may be aborted without
// changing which configurations reach refinement.
type topkTracker struct {
	k     int
	spans []float64
	thr   float64
}

func newTopkTracker(k int) *topkTracker {
	return &topkTracker{k: k, spans: make([]float64, 0, k), thr: math.Inf(1)}
}

func (t *topkTracker) threshold() float64 { return t.thr }

func (t *topkTracker) offer(span float64) {
	if len(t.spans) < t.k {
		t.spans = append(t.spans, span)
	} else {
		mi := 0
		for i, v := range t.spans {
			if v > t.spans[mi] {
				mi = i
			}
		}
		if span >= t.spans[mi] {
			return
		}
		t.spans[mi] = span
	}
	if len(t.spans) == t.k {
		t.thr = 0
		for _, v := range t.spans {
			if v > t.thr {
				t.thr = v
			}
		}
	}
}

// homogeneous reports whether all parts of the configuration are equal.
func homogeneous(degrees []int) bool {
	for _, d := range degrees[1:] {
		if d != degrees[0] {
			return false
		}
	}
	return true
}

// enumeratePartitions yields every multiset of power-of-two parts summing to
// exactly n (descending order within each partition), pruning partitions
// whose largest part is below minFirst — those cannot host the longest
// sequence. yield receives a reusable slice.
func enumeratePartitions(n, maxPart, minFirst int, yield func([]int)) {
	// Normalize maxPart down to a power of two ≤ n.
	p := 1
	for p*2 <= maxPart && p*2 <= n {
		p *= 2
	}
	var parts []int
	var rec func(remaining, maxP int)
	rec = func(remaining, maxP int) {
		if remaining == 0 {
			if len(parts) > 0 && parts[0] >= minFirst {
				yield(parts)
			}
			return
		}
		for d := maxP; d >= 1; d /= 2 {
			if d > remaining {
				continue
			}
			// Prune: the first (largest) part must be able to reach
			// minFirst.
			if len(parts) == 0 && d < minFirst {
				return
			}
			parts = append(parts, d)
			rec(remaining-d, d)
			parts = parts[:len(parts)-1]
		}
	}
	rec(n, p)
}

// searchConfigs builds a small set of promising configurations for large
// clusters: homogeneous seeds at every feasible degree plus a two-level
// split/merge neighbourhood expansion around each. Deterministic.
func searchConfigs(n, minDeg, maxDeg int) [][]int {
	seeds := seedConfigs(n, minDeg, maxDeg)
	seen := map[string]bool{}
	var out [][]int
	addCfg := func(cfg []int) bool {
		k := cfgKey(cfg)
		if seen[k] {
			return false
		}
		seen[k] = true
		out = append(out, append([]int(nil), cfg...))
		return true
	}
	for _, s := range seeds {
		addCfg(s)
		// Neighbourhood expansion: split each degree once, merge each pair
		// once, two rounds deep.
		frontier := [][]int{s}
		for depth := 0; depth < 2; depth++ {
			var next [][]int
			for _, cfg := range frontier {
				for _, nb := range neighbours(cfg, minDeg, maxDeg) {
					if addCfg(nb) {
						next = append(next, nb)
					}
				}
			}
			frontier = next
			if len(out) > 64 {
				return out
			}
		}
	}
	return out
}

// seedConfigs are the starting layouts for large-N search: homogeneous
// configurations at every feasible degree, plus one "one big group + rest at
// node size" mix.
func seedConfigs(n, minDeg, maxDeg int) [][]int {
	if maxDeg > n {
		maxDeg = n
	}
	var seeds [][]int
	for d := minDeg; d <= maxDeg; d *= 2 {
		cfg := make([]int, 0, n/d)
		for i := 0; i < n/d; i++ {
			cfg = append(cfg, d)
		}
		seeds = append(seeds, cfg)
	}
	if minDeg < n {
		cfg := []int{minDeg}
		rest := n - minDeg
		d := minDeg
		if d > 8 {
			d = 8
		}
		for rest >= d {
			cfg = append(cfg, d)
			rest -= d
		}
		for rest > 0 {
			p := 1
			for p*2 <= rest {
				p *= 2
			}
			cfg = append(cfg, p)
			rest -= p
		}
		seeds = append(seeds, cfg)
	}
	return seeds
}

// neighbours applies one split (d → d/2, d/2) or one merge (d, d → 2d) to
// the configuration. The largest part never drops below minDeg nor grows
// beyond maxDeg. Degrees are visited largest first, so the neighbours come
// in a fixed order: searchConfigs stops at a size cap and planEnum breaks
// span ties by scan order, so map order would leak into the plans.
func neighbours(cfg []int, minDeg, maxDeg int) [][]int {
	counts := map[int]int{}
	var degrees []int
	for _, d := range cfg {
		if counts[d] == 0 {
			degrees = append(degrees, d)
		}
		counts[d]++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degrees)))
	var out [][]int
	rebuild := func(m map[int]int) []int {
		var r []int
		for d, k := range m {
			for i := 0; i < k; i++ {
				r = append(r, d)
			}
		}
		sort.Sort(sort.Reverse(sort.IntSlice(r)))
		return r
	}
	for _, d := range degrees {
		k := counts[d]
		if d > 1 && k > 0 {
			m := cloneCounts(counts)
			m[d]--
			m[d/2] += 2
			nb := rebuild(m)
			if len(nb) > 0 && nb[0] >= minDeg {
				out = append(out, nb)
			}
		}
		if k >= 2 && 2*d <= maxDeg {
			m := cloneCounts(counts)
			m[d] -= 2
			m[2*d]++
			out = append(out, rebuild(m))
		}
	}
	return out
}

func cloneCounts(m map[int]int) map[int]int {
	c := make(map[int]int, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func cfgKey(cfg []int) string {
	s := append([]int(nil), cfg...)
	sort.Ints(s)
	b := make([]byte, 0, len(s)*3)
	for _, d := range s {
		for d > 0 {
			b = append(b, byte('0'+d%10))
			d /= 10
		}
		b = append(b, ',')
	}
	return string(b)
}
