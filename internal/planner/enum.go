package planner

import (
	"cmp"
	"context"
	"math"
	"math/bits"
	"slices"
	"sort"

	"flexsp/internal/cluster"
	"flexsp/internal/obs"
)

// enumLimit is the device count up to which we exhaustively enumerate group
// configurations (binary partitions of N). Beyond it the planner switches to
// a split/merge local search over configurations.
const enumLimit = 64

// boundSlack is the relative margin by which a lower bound must exceed the
// top-k threshold before the scan acts on it. A bound and the span it bounds
// are summed in different orders, so a bound that equals a span may round a
// few ulps above it.
const boundSlack = 1e-9

// planEnum is the default solver: enumerate (or search) degree multisets,
// place items with LPT, refine the most promising configurations. The
// configurations are placed in ascending order of a lower bound on their
// LPT span (configScan.bound), ties to the enumeration order, and ranked by
// (span, enumeration index), so which configurations reach refinement, and
// in which order, does not depend on the scan order. Once k = refineTop
// spans are known, a configuration whose bound exceeds the k-th smallest
// cannot enter the top k and is skipped unplaced, and a placement is
// abandoned as soon as its running span, or the water level of its placed
// and remaining work (assignment.water), exceeds it. Homogeneous layouts
// are exempt: they enter the refine set whatever their rank, so the plan
// never loses to a single-degree baseline merely because LPT under-ranked
// it, and each is placed in full.
//
// On a mixed fleet every configuration is placed under each placement bias
// (see placementBiases), its groups priced by the ranges they land on, and
// its bound prices each degree at the cheapest of its slots; when every
// range prices alike one unplaced scan per configuration suffices, and a
// range-placing planner puts the winning groups on the configuration's
// lowest-address placement — it covers every group of the configuration, so
// dropping the ones left empty shifts no range. The context is used only
// for span annotation (candidate, skip and refine counts); the search
// itself is fast enough not to need cancellation points.
func (pl *Planner) planEnum(ctx context.Context, lens []int) (MicroPlan, error) {
	if len(lens) == 0 {
		return MicroPlan{}, nil
	}
	span := obs.FromContext(ctx)
	sc, err := pl.newConfigScan(lens)
	if err != nil {
		return MicroPlan{}, err
	}
	refineSet := sc.run()
	span.SetAttr("candidates", len(sc.cands))
	span.SetAttr("skipped", sc.skipped)
	if len(refineSet) == 0 {
		return MicroPlan{}, ErrInfeasible
	}

	// Refine the top configurations with local search and keep the best.
	span.SetAttr("refined", len(refineSet))
	n := sc.memo.pr.Fleet.Topo.NumDevices()
	best := MicroPlan{Time: math.Inf(1)}
	gtMemo := newGroupTimeMemo()
	a := sc.a
	for _, cd := range refineSet {
		degrees, ranges := sc.layoutOf(cd)
		if ranges == nil && pl.Places() {
			placed, err := cluster.PlaceGroups(n, degrees)
			if err != nil {
				return MicroPlan{}, err
			}
			ranges = placed.Ranges
		}
		a.reconfigure(sc.memo, degrees, ranges)
		if !a.place(sc.items) {
			continue
		}
		a.refine(refineIters)
		if p := a.plan(gtMemo); p.Time < best.Time {
			best = p
		}
	}
	if math.IsInf(best.Time, 1) {
		return MicroPlan{}, ErrInfeasible
	}
	return best, nil
}

// configScan is planEnum's scan over the degree configurations of one
// micro-batch. Each configuration is kept as its group count per
// power-of-two degree, with a lower bound on the LPT span of any of its
// placements; run places them in (bound, enumeration index) order.
type configScan struct {
	memo  *groupMemo
	items []item // longest first
	// rest.s[i] and rest.s2[i] sum the representative lengths of items[i:]
	// and their squares: the work still to place before items[i].
	rest tail
	a    *assignment

	// levels is the number of degrees 1, 2, 4, … a configuration counts;
	// counts holds levels entries per configuration, the number of groups
	// of degree 2^l at entry l.
	levels int
	counts []int32
	order  []scanEntry
	// floor[l] prices a degree-2^l group at or below every slot it can land
	// on (groupMemo.floor).
	floor []floorPrice
	// byB lists the levels by ascending floor B: the order in which groups
	// absorb work fastest.
	byB []int

	// rankings are the placement biases' slot rankings, nil when every
	// range prices alike; bufs, placed and at are their scratch, and
	// degrees is degreesOf's.
	rankings []*cluster.SlotRanking
	bufs     [][]cluster.DeviceRange
	placed   []layout
	at       []int
	degrees  []int

	cands   []candidate
	skipped int // configurations skipped by their bound, before any placement
}

// scanEntry is one configuration in the scan order.
type scanEntry struct {
	bound       float64
	config      int32 // enumeration index
	homogeneous bool
}

// layout is one distinct placement of a configuration: the bias that
// produced it and its ranges (nil when unplaced).
type layout struct {
	bias   int
	ranges []cluster.DeviceRange
}

// candidate is a completed placement, indexed by (configuration, placement
// bias) in enumeration order.
type candidate struct {
	span        float64
	index       int32 // configuration·biases + bias
	homogeneous bool
}

// compare ranks candidates by (span, index).
func (c candidate) compare(o candidate) int {
	if c.span != o.span {
		return cmp.Compare(c.span, o.span)
	}
	return cmp.Compare(c.index, o.index)
}

// newConfigScan buckets the micro-batch and lists every configuration the
// planner considers, with its bound: every binary partition of the fleet up
// to enumLimit devices, searchConfigs beyond.
func (pl *Planner) newConfigScan(lens []int) (*configScan, error) {
	pr := pl.Pricing()
	n := pr.Fleet.Topo.NumDevices()
	minDeg := pr.MinDegreeFor(slices.Max(lens))
	if minDeg == 0 {
		return nil, ErrInfeasible
	}
	buckets := pl.bucketize(lens)
	if overCapacity(buckets, pr.TokenCapacity()) {
		return nil, ErrInfeasible
	}
	memo := newGroupMemo(pr)
	sc := &configScan{memo: memo, items: itemsFromBuckets(buckets)}
	sc.rest = newTail(sc.items)
	maxDeg := pr.Fleet.MaxDegree()
	for d := 1; d <= maxDeg; d *= 2 {
		sc.floor = append(sc.floor, memo.floor(d))
	}
	sc.levels = len(sc.floor)
	for l := range sc.levels {
		sc.byB = append(sc.byB, l)
	}
	slices.SortStableFunc(sc.byB, func(x, y int) int { return cmp.Compare(sc.floor[x].piece[1], sc.floor[y].piece[1]) })
	if !pr.Uniform() {
		// Each bias ranks the fleet's slots once per call; a configuration
		// is placed from those rankings and scanned once per distinct range
		// set.
		biases := placementBiases(memo)
		sc.rankings = make([]*cluster.SlotRanking, len(biases))
		for i, bias := range biases {
			sc.rankings[i] = cluster.RankSlots(n, bias)
		}
		sc.bufs = make([][]cluster.DeviceRange, len(biases))
		sc.at = make([]int, n)
	}
	configs := func(yield func([]int)) { enumeratePartitions(n, maxDeg, minDeg, yield) }
	if n > enumLimit {
		cfgs := searchConfigs(n, minDeg, maxDeg)
		configs = func(yield func([]int)) {
			for _, cfg := range cfgs {
				yield(cfg)
			}
		}
	}
	// Size every buffer once: a first pass counts the configurations and
	// their largest group count.
	count, groups := 0, 0
	configs(func(degrees []int) { count, groups = count+1, max(groups, len(degrees)) })
	sc.counts = make([]int32, 0, count*sc.levels)
	sc.order = make([]scanEntry, 0, count)
	sc.a = newAssignmentShell(groups)
	configs(sc.add)
	return sc, nil
}

// add records a configuration, given as degrees in non-increasing order
// (the order both enumerations produce, and the one layouts rebuilds).
func (sc *configScan) add(degrees []int) {
	base := len(sc.counts)
	sc.counts = sc.counts[:base+sc.levels]
	counts := sc.counts[base:]
	for _, d := range degrees {
		counts[bits.TrailingZeros(uint(d))]++
	}
	sc.order = append(sc.order, scanEntry{
		bound:       sc.bound(counts),
		config:      int32(len(sc.order)),
		homogeneous: homogeneous(degrees),
	})
}

// bound is a lower bound on the LPT span of every placement of a
// configuration with counts[l] groups of degree 2^l, in O(levels). Each
// group's time is at least its first piece A·Σs² + B·Σs + C (B > 0: α2 is
// positive), at floor prices, so the span is at least
//   - the longest item alone on the cheapest group that holds it, and
//   - the water level C_min + (Σs + r_min·Σs²) / Σ_g 1/B_g, with
//     r_min = min_g A_g/B_g: every group g that holds items has
//     (span − C_min)/B_g ≥ r_min·Σs²_g + Σs_g, and summing over the groups
//     that hold items gives the bound. At most one group per item holds
//     any, so the sum of 1/B_g is taken over the len(items) groups of
//     least B, which matters for micro-batches of few sequences.
//
// Ring CP's traffic piece is left out; the first piece bounds it too.
func (sc *configScan) bound(counts []int32) float64 {
	s := float64(sc.items[0].rep)
	alone, cMin, rMin, invB := math.Inf(1), math.Inf(1), math.Inf(1), 0.0
	for l, k := range counts {
		if k == 0 {
			continue
		}
		f := &sc.floor[l]
		a, b, c := f.piece[0], f.piece[1], f.piece[2]
		if f.capTokens >= int64(s) {
			alone = min(alone, a*s*s+b*s+c)
		}
		cMin, rMin = min(cMin, c), min(rMin, f.ratio)
	}
	m := int32(len(sc.items))
	for _, l := range sc.byB {
		k := min(counts[l], m)
		invB += float64(k) * sc.floor[l].invB
		if m -= k; m == 0 {
			break
		}
	}
	return max(alone, cMin+(sc.rest.s[0]+rMin*sc.rest.s2[0])/invB)
}

// run places the configurations in (bound, enumeration index) order and
// returns the refine set: the refineTop candidates of smallest (span,
// index), then every other homogeneous one in the same order. It equals the
// refine set of placing every configuration in full: a configuration is
// skipped, or a placement abandoned, only once its span provably exceeds
// the k-th smallest span seen, which is at least the k-th smallest of all.
func (sc *configScan) run() []candidate {
	slices.SortFunc(sc.order, func(x, y scanEntry) int {
		if x.bound != y.bound {
			return cmp.Compare(x.bound, y.bound)
		}
		return cmp.Compare(x.config, y.config)
	})
	prune := newTopkTracker(refineTop)
	for _, e := range sc.order {
		if !e.homogeneous && e.bound > prune.threshold(sc.index(e.config, 0))*(1+boundSlack) {
			sc.skipped++
			continue
		}
		degrees, layouts := sc.layouts(int(e.config))
		for _, lay := range layouts {
			cd := candidate{index: sc.index(e.config, lay.bias), homogeneous: e.homogeneous}
			abort := math.Inf(1)
			if !e.homogeneous {
				abort = prune.threshold(cd.index)
			}
			sc.a.reconfigure(sc.memo, degrees, lay.ranges)
			var ok bool
			if ok, cd.span = sc.a.placeBounded(sc.items, &sc.rest, abort); ok {
				sc.cands = append(sc.cands, cd)
				prune.offer(cd)
			}
		}
	}
	slices.SortFunc(sc.cands, candidate.compare)
	top := min(refineTop, len(sc.cands))
	refineSet := slices.Clone(sc.cands[:top])
	for _, cd := range sc.cands[top:] {
		if cd.homogeneous {
			refineSet = append(refineSet, cd)
		}
	}
	return refineSet
}

// index numbers a configuration's placement under a bias in enumeration
// order.
func (sc *configScan) index(config int32, bias int) int32 {
	return config*sc.biases() + int32(bias)
}

// biases is the number of placements a configuration can have.
func (sc *configScan) biases() int32 { return int32(max(len(sc.rankings), 1)) }

// degreesOf decodes a configuration into scratch degrees, non-increasing:
// the order both enumerations produce, so a placement sees the groups in
// the order they were listed.
func (sc *configScan) degreesOf(config int) []int {
	sc.degrees = sc.degrees[:0]
	counts := sc.counts[config*sc.levels : (config+1)*sc.levels]
	for l := sc.levels - 1; l >= 0; l-- {
		for range counts[l] {
			sc.degrees = append(sc.degrees, 1<<l)
		}
	}
	return sc.degrees
}

// layouts returns the degrees of a configuration and its distinct
// placements in bias order: one unplaced layout when every range prices
// alike. Different configurations never share a range set, so comparing one
// configuration's placements with each other is the whole deduplication.
// Both results are scratch, valid until the next call.
func (sc *configScan) layouts(config int) ([]int, []layout) {
	degrees := sc.degreesOf(config)
	sc.placed = sc.placed[:0]
	if sc.rankings == nil {
		return degrees, append(sc.placed, layout{})
	}
	for i, rk := range sc.rankings {
		ranges, err := rk.AppendPlace(sc.bufs[i][:0], degrees)
		sc.bufs[i] = ranges
		if err != nil || slices.ContainsFunc(sc.placed, func(prev layout) bool {
			return sameRanges(prev.ranges, ranges, sc.at)
		}) {
			continue
		}
		sc.placed = append(sc.placed, layout{bias: i, ranges: ranges})
	}
	return degrees, sc.placed
}

// layoutOf returns the degrees and ranges of a candidate, scratch as in
// layouts.
func (sc *configScan) layoutOf(cd candidate) ([]int, []cluster.DeviceRange) {
	degrees := sc.degreesOf(int(cd.index / sc.biases()))
	if sc.rankings == nil {
		return degrees, nil
	}
	bias := cd.index % sc.biases()
	// The scan placed these degrees under this bias without error.
	ranges, _ := sc.rankings[bias].AppendPlace(sc.bufs[bias][:0], degrees)
	sc.bufs[bias] = ranges
	return degrees, ranges
}

// topkTracker keeps the k smallest candidates offered so far, by (span,
// index). A candidate that ranks after the k-th of them can never enter the
// top k, so a placement may be abandoned as soon as its running span
// exceeds threshold(index) without changing which configurations reach
// refinement.
type topkTracker struct {
	k   int
	top []candidate
	kth candidate // the largest of top once it holds k; +Inf before
}

func newTopkTracker(k int) *topkTracker {
	return &topkTracker{k: k, top: make([]candidate, 0, k), kth: candidate{span: math.Inf(1), index: math.MaxInt32}}
}

// threshold is the largest span with which the candidate of this index can
// still rank before the k-th: the k-th's span, or the float just below it
// for an index after the k-th's, which loses the tie.
func (t *topkTracker) threshold(index int32) float64 {
	if index > t.kth.index {
		return math.Nextafter(t.kth.span, math.Inf(-1))
	}
	return t.kth.span
}

func (t *topkTracker) offer(c candidate) {
	if len(t.top) == t.k {
		if c.compare(t.kth) >= 0 {
			return
		}
		t.top[slices.Index(t.top, t.kth)] = c
	} else {
		t.top = append(t.top, c)
	}
	if len(t.top) == t.k {
		t.kth = slices.MaxFunc(t.top, candidate.compare)
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
		if remaining == 0 || maxP == 1 {
			// Only ones can follow: one partition, filled in one go.
			for range remaining {
				parts = append(parts, 1)
			}
			if len(parts) > 0 && parts[0] >= minFirst {
				yield(parts)
			}
			parts = parts[:len(parts)-remaining]
			return
		}
		// From the largest power of two that fits, down.
		for d := min(maxP, 1<<(bits.Len(uint(remaining))-1)); d >= 1; d /= 2 {
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
// in a fixed order. planEnum breaks span ties by enumeration index, not by
// scan order, but that index is the position in searchConfigs' list, and
// searchConfigs stops at a size cap, so the order still decides which
// configurations are scanned and which wins a tie: map order would leak
// into the plans.
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
