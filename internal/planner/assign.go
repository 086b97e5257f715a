package planner

import (
	"math"
	"math/bits"
	"sort"

	"flexsp/internal/bucket"
	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
)

// item is one sequence to place: costed at its bucket's representative
// length (ŝ_q, conservative) but carrying its actual length for the final
// plan.
type item struct {
	rep    int // bucket upper limit used for cost/memory estimation
	actual int
}

// bucketize applies the planner's bucketing mode to the micro-batch. It must
// not write to the receiver: one Planner is shared by concurrent solves.
func (pl *Planner) bucketize(lens []int) []bucket.Bucket {
	switch pl.Bucketing {
	case BucketNaive:
		return bucket.Naive(lens, NaiveBucketWidth)
	case BucketNone:
		// One bucket per distinct length: exact representation.
		return bucket.DP(lens, len(lens))
	default:
		return bucket.DP(lens, pl.effectiveQ())
	}
}

// itemsFromBuckets flattens a bucketing into placement items, longest first.
func itemsFromBuckets(buckets []bucket.Bucket) []item {
	var items []item
	for _, b := range buckets {
		for _, l := range b.Lens {
			items = append(items, item{rep: b.Upper, actual: l})
		}
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].rep != items[j].rep {
			return items[i].rep > items[j].rep
		}
		return items[i].actual > items[j].actual
	})
	return items
}

// groupMemo caches what reconfigure derives per group — its coefficients,
// token capacity and affine time pieces — so the hundreds of candidate
// configurations one Plan call scans derive each distinct group once: per
// degree when every range prices alike (or the group is unplaced), per
// aligned slot on a mixed fleet.
type groupMemo struct {
	pr      costmodel.Pricing
	uniform bool
	// byLevel holds the degree-2^l price at entry l.
	byLevel []*groupPrice
	// bySlot numbers a mixed fleet's aligned power-of-two slots like a
	// binary heap over span, the smallest power of two covering the fleet:
	// the size-d slot at start s is entry span/d + s/d.
	bySlot []*groupPrice
	span   int
}

type groupPrice struct {
	c         costmodel.Coeffs
	capTokens int64
	// pieces are the (Σs², Σs, 1) coefficients of the group's time pieces
	// (costmodel.Coeffs.Pieces, at most two); the second is zero when the
	// group has one.
	pieces [2][3]float64
	// ratio and invB are the first piece's A/B and 1/B, for water levels.
	ratio, invB float64
}

func newGroupMemo(pr costmodel.Pricing) *groupMemo {
	gm := &groupMemo{pr: pr, uniform: pr.Uniform(), byLevel: make([]*groupPrice, bits.Len(uint(pr.Fleet.Topo.NumDevices())))}
	if !gm.uniform {
		gm.span = 1
		for gm.span < pr.Fleet.Topo.NumDevices() {
			gm.span *= 2
		}
		gm.bySlot = make([]*groupPrice, 2*gm.span)
	}
	return gm
}

// get prices a degree-d group on range r (the zero range when unplaced; on
// a mixed fleet a placed group's range is an aligned slot of size d).
func (gm *groupMemo) get(d int, r cluster.DeviceRange) *groupPrice {
	if gm.uniform || r.Size == 0 {
		l := bits.TrailingZeros(uint(d))
		if gm.byLevel[l] == nil {
			gm.byLevel[l] = gm.price(d, r)
		}
		return gm.byLevel[l]
	}
	i := gm.span/d + r.Start/d
	if gm.bySlot[i] == nil {
		gm.bySlot[i] = gm.price(d, r)
	}
	return gm.bySlot[i]
}

// floorPrice is a lower price of a degree's groups: the coefficients of a
// first piece, A·Σs² + B·Σs + C, its A/B and 1/B, and a token capacity.
type floorPrice struct {
	piece       [3]float64
	ratio, invB float64
	capTokens   int64
}

// floor prices a degree-d group at or below every range it can land on: the
// degree's one price when every range prices alike, otherwise the least
// coefficients of the first piece and the largest token capacity over the
// degree's aligned slots. A bound computed from it holds for every
// placement. It reads the memo's slot prices, which the scan's placements
// then reuse, rather than LowerBound's table, which prices every range again
// and leaves β2 out.
func (gm *groupMemo) floor(d int) floorPrice {
	if gm.uniform {
		gp := gm.get(d, cluster.DeviceRange{})
		return floorPrice{piece: gp.pieces[0], ratio: gp.ratio, invB: gp.invB, capTokens: gp.capTokens}
	}
	f := floorPrice{piece: [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}}
	for start := 0; start+d <= gm.pr.Fleet.Topo.NumDevices(); start += d {
		gp := gm.get(d, cluster.DeviceRange{Start: start, Size: d})
		for i, v := range gp.pieces[0] {
			f.piece[i] = min(f.piece[i], v)
		}
		f.capTokens = max(f.capTokens, gp.capTokens)
	}
	f.ratio, f.invB = f.piece[0]/f.piece[1], 1/f.piece[1]
	return f
}

func (gm *groupMemo) price(d int, r cluster.DeviceRange) *groupPrice {
	c := gm.pr.Group(r)
	gp := &groupPrice{c: c, capTokens: int64(c.MaxTokensPerGroup(d))}
	for i, p := range c.Pieces(d) {
		gp.pieces[i] = [3]float64{p.Alpha1 / p.D, p.Alpha2/p.D + p.Comm, p.Beta1 + p.Beta2}
	}
	gp.ratio, gp.invB = gp.pieces[0][0]/gp.pieces[0][1], 1/gp.pieces[0][1]
	return gp
}

// assignment is the incremental state of placing items onto a fixed group
// configuration. Group time is evaluated in O(1) per update from running
// Σs and Σs² (Eq. 12–14 are linear in those sums), and each group's current
// time is cached so the makespan never re-derives unchanged groups. Every
// group carries the coefficients its pricing gives its device range: the
// same for all groups when every range prices alike, placement-specific on
// a mixed fleet, where a group's speed and memory depend on the
// device-class region it occupies.
//
// One assignment is reused across the hundreds of candidate configurations a
// Plan call scans: reconfigure resets the group state while keeping every
// backing buffer.
type assignment struct {
	cs        []*costmodel.Coeffs // owned by the groupMemo
	degrees   []int
	ranges    []cluster.DeviceRange // empty when the groups are unplaced
	capTokens []int64

	// A group's time is the larger of its two affine pieces in the running
	// sums: pA·Σs² + pB·Σs + pC and qA·Σs² + qB·Σs + qC (zero for a group
	// with one piece). partial and qPartial cache both for the current sums,
	// so the LPT scan costs three flops per group, and the second piece is
	// evaluated only for a group the first ranks ahead of the best so far.
	pA, pB, pC, qA, qB, qC []float64
	partial, qPartial      []float64

	// The water level reads the first pieces: cMin is the least pC, rMin
	// the least pA/pB, invB[g] is 1/pB[g] and sumInvB their sum. work is
	// Σ (partial − cMin)·invB over the groups that hold items.
	invB                      []float64
	cMin, rMin, sumInvB, work float64

	members [][]item
	sumS    []float64
	sumS2   []float64
	tokens  []int64
	times   []float64 // cached groupTime per group, maintained by add/remove
}

func newAssignmentShell(k int) *assignment {
	a := &assignment{}
	a.grow(k)
	return a
}

// resize returns s with length k, reusing its backing array when it can.
func resize[T any](s []T, k int) []T {
	if cap(s) < k {
		return make([]T, k)
	}
	return s[:k]
}

// grow resizes the per-group slices to k groups, reusing backing arrays and
// clearing per-group state.
func (a *assignment) grow(k int) {
	a.cs = resize(a.cs, k)
	a.degrees = resize(a.degrees, k)
	a.capTokens = resize(a.capTokens, k)
	a.pA, a.pB, a.pC = resize(a.pA, k), resize(a.pB, k), resize(a.pC, k)
	a.qA, a.qB, a.qC = resize(a.qA, k), resize(a.qB, k), resize(a.qC, k)
	a.partial, a.qPartial = resize(a.partial, k), resize(a.qPartial, k)
	a.invB = resize(a.invB, k)
	a.sumS, a.sumS2 = resize(a.sumS, k), resize(a.sumS2, k)
	a.tokens, a.times = resize(a.tokens, k), resize(a.times, k)
	if cap(a.members) < k {
		a.members = append(a.members[:cap(a.members)], make([][]item, k-cap(a.members))...)
	}
	a.members = a.members[:k]
	for g := 0; g < k; g++ {
		a.members[g] = a.members[g][:0]
		a.sumS[g] = 0
		a.sumS2[g] = 0
		a.tokens[g] = 0
		a.times[g] = 0
	}
	a.ranges = a.ranges[:0]
	a.cMin, a.rMin, a.sumInvB, a.work = math.Inf(1), math.Inf(1), 0, 0
}

// newAssignment builds the assignment of unplaced groups of the given
// degrees, all priced by c.
func newAssignment(c costmodel.Coeffs, degrees []int) *assignment {
	a := newAssignmentShell(len(degrees))
	a.reconfigure(newGroupMemo(c.Pricing()), degrees, nil)
	return a
}

// reconfigure resets the assignment onto a new configuration, reusing all
// buffers: group g gets degrees[g] devices and, when ranges is non-nil, the
// device range ranges[g], priced through memo.
func (a *assignment) reconfigure(memo *groupMemo, degrees []int, ranges []cluster.DeviceRange) {
	a.grow(len(degrees))
	a.ranges = append(a.ranges, ranges...)
	copy(a.degrees, degrees)
	for g, d := range degrees {
		var r cluster.DeviceRange
		if ranges != nil {
			r = ranges[g]
		}
		gp := memo.get(d, r)
		a.cs[g] = &gp.c
		a.capTokens[g] = gp.capTokens
		p, q := &gp.pieces[0], &gp.pieces[1]
		a.pA[g], a.pB[g], a.pC[g], a.partial[g] = p[0], p[1], p[2], p[2]
		a.qA[g], a.qB[g], a.qC[g], a.qPartial[g] = q[0], q[1], q[2], q[2]
		a.invB[g] = gp.invB
		a.cMin, a.rMin, a.sumInvB = min(a.cMin, p[2]), min(a.rMin, gp.ratio), a.sumInvB+gp.invB
	}
}

// tail holds suffix sums over a longest-first item list: s[i] and s2[i] sum
// the representative lengths of items[i:] and their squares (s[len] = 0).
type tail struct{ s, s2 []float64 }

func newTail(items []item) tail {
	t := tail{s: make([]float64, len(items)+1), s2: make([]float64, len(items)+1)}
	for i := len(items) - 1; i >= 0; i-- {
		r := float64(items[i].rep)
		t.s[i], t.s2[i] = t.s[i+1]+r, t.s2[i+1]+r*r
	}
	return t
}

// water bounds from below the span of the placement in progress once every
// item is placed, with items[i:] still to place (rest is the items' tail):
// each group g that ends up holding items has (span − cMin)/pB[g] ≥
// (partial − cMin)/pB[g] of its placed items plus rMin·Σs² + Σs of those it
// will still get, so span ≥ cMin + (work + rest.s[i] + rMin·rest.s2[i]) /
// sumInvB. It never falls as items are placed: an item adds at least the
// bound work it takes out of the rest.
func (a *assignment) water(rest *tail, i int) float64 {
	return a.cMin + (a.work+rest.s[i]+a.rMin*rest.s2[i])/a.sumInvB
}

// groupTime is the Eq. 14 estimate for group g's current members.
func (a *assignment) groupTime(g int) float64 {
	return a.times[g]
}

// timeWith is groupTime with a hypothetical extra item.
func (a *assignment) timeWith(g int, it item) float64 {
	s := float64(it.rep)
	t := a.partial[g] + a.pA[g]*s*s + a.pB[g]*s
	if tq := a.qPartial[g] + a.qA[g]*s*s + a.qB[g]*s; tq > t {
		return tq
	}
	return t
}

func (a *assignment) fits(g int, it item) bool {
	return a.tokens[g]+int64(it.rep) <= a.capTokens[g]
}

func (a *assignment) add(g int, it item) {
	s := float64(it.rep)
	a.members[g] = append(a.members[g], it)
	a.sumS[g] += s
	a.sumS2[g] += s * s
	a.tokens[g] += int64(it.rep)
	a.syncGroup(g)
}

func (a *assignment) remove(g, idx int) item {
	it := a.members[g][idx]
	last := len(a.members[g]) - 1
	a.members[g][idx] = a.members[g][last]
	a.members[g] = a.members[g][:last]
	s := float64(it.rep)
	a.sumS[g] -= s
	a.sumS2[g] -= s * s
	a.tokens[g] -= int64(it.rep)
	a.syncGroup(g)
	return it
}

// syncGroup refreshes the cached affine partials and group time from the
// running sums (recomputed rather than incrementally updated, so the caches
// never drift from the sums across add/remove cycles).
func (a *assignment) syncGroup(g int) {
	a.partial[g] = a.pA[g]*a.sumS2[g] + a.pB[g]*a.sumS[g] + a.pC[g]
	a.qPartial[g] = a.qA[g]*a.sumS2[g] + a.qB[g]*a.sumS[g] + a.qC[g]
	switch {
	case a.sumS[g] == 0:
		a.times[g] = 0
	case a.qPartial[g] > a.partial[g]:
		a.times[g] = a.qPartial[g]
	default:
		a.times[g] = a.partial[g]
	}
}

func (a *assignment) makespan() float64 {
	var m float64
	for g := range a.degrees {
		if t := a.times[g]; t > m {
			m = t
		}
	}
	return m
}

// place runs the cost-aware LPT pass: items (already longest-first) go to
// the group with the smallest resulting finish time among groups with
// memory headroom. Returns false if some item fits nowhere.
func (a *assignment) place(items []item) bool {
	ok, _ := a.placeBounded(items, nil, math.Inf(1))
	return ok
}

// placeBounded is place with an abort threshold: group times only grow as
// items are placed, so once the running makespan strictly exceeds `abort`
// the final makespan is guaranteed to as well, and the scan of this
// candidate configuration can stop early. Given the items' tail, it also
// stops once the water level, read before each item, exceeds `abort` by
// more than boundSlack. Returns (placed, makespan); placed is false on
// infeasibility or abort.
func (a *assignment) placeBounded(items []item, rest *tail, abort float64) (bool, float64) {
	span := 0.0
	k := len(a.degrees)
	tokens, capTokens := a.tokens, a.capTokens
	partial, pA, pB := a.partial, a.pA, a.pB
	limit := abort * (1 + boundSlack)
	for i, it := range items {
		if rest != nil && a.water(rest, i) > limit {
			return false, span
		}
		best, bestT := -1, 0.0
		rep := int64(it.rep)
		s := float64(it.rep)
		s2 := s * s
		for g := 0; g < k; g++ {
			if tokens[g]+rep > capTokens[g] {
				continue
			}
			t := partial[g] + pA[g]*s2 + pB[g]*s
			if best == -1 || t < bestT {
				if tq := a.qPartial[g] + a.qA[g]*s2 + a.qB[g]*s; tq > t {
					if best != -1 && tq >= bestT {
						continue
					}
					t = tq
				}
				best, bestT = g, t
			}
		}
		if best == -1 {
			return false, 0
		}
		prev := partial[best]
		if tokens[best] == 0 {
			prev = a.cMin
		}
		a.add(best, it)
		a.work += (partial[best] - prev) * a.invB[best]
		if bestT > span {
			span = bestT
			if span > abort {
				return false, span
			}
		}
	}
	return true, span
}

// refine runs a bounded move/swap local search lowering the makespan: pull
// items out of the bottleneck group into groups that can absorb them more
// cheaply, or swap them against shorter items. Candidate steps re-derive
// only the two groups they touch (add/remove maintain each group's cached
// time in O(1)), so the post-move makespan check reads cached values instead
// of re-costing every group.
func (a *assignment) refine(maxIters int) {
	for iter := 0; iter < maxIters; iter++ {
		// Bottleneck group.
		gmax, tmax := -1, 0.0
		for g := range a.degrees {
			if t := a.times[g]; t > tmax {
				gmax, tmax = g, t
			}
		}
		if gmax == -1 {
			return
		}
		if !a.improveOnce(gmax, tmax) {
			return
		}
	}
}

// improveOnce tries one improving move or swap out of the bottleneck group.
func (a *assignment) improveOnce(gmax int, tmax float64) bool {
	// Moves: bottleneck item → other group.
	for idx := 0; idx < len(a.members[gmax]); idx++ {
		for g := range a.degrees {
			// Re-read at each attempt: failed attempts reshuffle the
			// member slice, so a stale copy would desynchronize from the
			// element remove() actually takes.
			it := a.members[gmax][idx]
			if g == gmax || !a.fits(g, it) {
				continue
			}
			if a.timeWith(g, it) < tmax-1e-12 {
				// Does removing it actually reduce the bottleneck, and does
				// the receiving group stay under it?
				moved := a.remove(gmax, idx)
				a.add(g, moved)
				if a.makespan() < tmax-1e-12 {
					return true
				}
				// Revert.
				a.remove(g, len(a.members[g])-1)
				a.add(gmax, moved)
			}
		}
	}
	// Swaps: bottleneck item ↔ shorter item elsewhere.
	for idx := 0; idx < len(a.members[gmax]); idx++ {
		for g := range a.degrees {
			if g == gmax {
				continue
			}
			for jdx := 0; jdx < len(a.members[g]); jdx++ {
				// Re-read both: failed attempts reorder the slices.
				big := a.members[gmax][idx]
				small := a.members[g][jdx]
				if small.rep >= big.rep {
					continue
				}
				// Tentatively swap.
				a.remove(gmax, idx)
				a.remove(g, jdx)
				if a.fits(gmax, small) && a.fits(g, big) {
					a.add(gmax, small)
					a.add(g, big)
					if a.makespan() < tmax-1e-12 {
						return true
					}
					a.remove(gmax, len(a.members[gmax])-1)
					a.remove(g, len(a.members[g])-1)
				}
				a.add(gmax, big)
				a.add(g, small)
			}
		}
	}
	return false
}

// plan converts the assignment into a MicroPlan with actual sequence
// lengths, dropping empty groups, and recomputes the time estimate from the
// actual lengths against each group's own cost model. memo, when non-nil,
// caches the per-group times by (length signature, degree, range) across the
// candidate plans of one Plan call.
func (a *assignment) plan(memo *groupTimeMemo) MicroPlan {
	var p MicroPlan
	for g, d := range a.degrees {
		if len(a.members[g]) == 0 {
			continue
		}
		lens := make([]int, 0, len(a.members[g]))
		for _, it := range a.members[g] {
			lens = append(lens, it.actual)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(lens)))
		grp := Group{Degree: d, Lens: lens}
		if len(a.ranges) > 0 {
			grp.Range = a.ranges[g]
		}
		p.Groups = append(p.Groups, grp)
		var t float64
		if memo != nil {
			t = memo.groupTime(a.cs[g], grp)
		} else {
			t = a.cs[g].GroupTime(lens, d)
		}
		if t > p.Time {
			p.Time = t
		}
	}
	sort.SliceStable(p.Groups, func(i, j int) bool { return p.Groups[i].Degree > p.Groups[j].Degree })
	return p
}

// groupTimeMemo caches GroupTime evaluations by (length signature, degree,
// range) within one Plan call: refined candidate configurations repeatedly
// converge to the same final groups, whose exact-length re-costing is the
// only remaining O(K) term per candidate. Entries keep the exact lengths and
// compare them on lookup, so hash collisions fall back to a direct
// evaluation instead of returning another group's time.
type groupTimeMemo struct {
	times map[groupKey]memoEntry
}

type groupKey struct {
	sig    uint64
	degree int
	r      cluster.DeviceRange
}

type memoEntry struct {
	lens []int
	t    float64
}

func newGroupTimeMemo() *groupTimeMemo {
	return &groupTimeMemo{times: make(map[groupKey]memoEntry)}
}

// lensSig is an FNV-1a hash over the (sorted) lengths.
func lensSig(lens []int) uint64 {
	h := uint64(14695981039346656037)
	for _, l := range lens {
		h ^= uint64(l)
		h *= 1099511628211
	}
	return h
}

func lensEqual(a, b []int) bool {
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

func (m *groupTimeMemo) groupTime(c *costmodel.Coeffs, g Group) float64 {
	k := groupKey{sig: lensSig(g.Lens), degree: g.Degree, r: g.Range}
	if e, ok := m.times[k]; ok {
		if lensEqual(e.lens, g.Lens) {
			return e.t
		}
		return c.GroupTime(g.Lens, g.Degree) // hash collision: don't overwrite
	}
	t := c.GroupTime(g.Lens, g.Degree)
	m.times[k] = memoEntry{lens: g.Lens, t: t}
	return t
}
