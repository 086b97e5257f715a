package cluster

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// GroupPlacement is a concrete assignment of SP groups to device ranges. A
// placement is valid when groups are disjoint, aligned, power-of-two sized
// ranges that fit within the cluster.
type GroupPlacement struct {
	// Ranges lists the placed groups as [start, start+size) device ranges.
	Ranges []DeviceRange
}

// DeviceRange is a contiguous block of devices [Start, Start+Size).
type DeviceRange struct {
	Start, Size int
}

// End returns the exclusive upper bound of the range.
func (r DeviceRange) End() int { return r.Start + r.Size }

// Aligned reports whether the range starts at a multiple of its size, the
// invariant that lets every group reuse one of the ≤ log N cached
// neighbour-pair communicators (paper §5 footnote 4).
func (r DeviceRange) Aligned() bool { return r.Size > 0 && r.Start%r.Size == 0 }

func (r DeviceRange) String() string {
	return fmt.Sprintf("[%d:%d)", r.Start, r.End())
}

// PlaceGroups assigns aligned device ranges to the requested SP degrees on a
// cluster with n devices. Degrees must each be a power of two and sum to at
// most n. Larger groups are placed first (first-fit on aligned boundaries),
// which always succeeds for power-of-two degrees by the buddy-allocation
// property.
func PlaceGroups(n int, degrees []int) (GroupPlacement, error) {
	return PlaceGroupsScored(n, degrees, nil)
}

// PlaceGroupsScored is PlaceGroups with a slot preference: among the free
// aligned slots for each group (largest groups choose first), the slot
// maximizing score wins, ties to the lowest start. A nil score reproduces
// PlaceGroups' lowest-address placement. On a heterogeneous fleet the score
// lets the planner steer groups onto device-class regions — fast nodes for
// the long-sequence groups, large-memory nodes for token-heavy ones — and
// any choice of aligned slots succeeds: placing in non-increasing size order
// keeps every size-d cell of the device grid either fully free or fully
// occupied, so a free aligned slot always exists while capacity remains.
// The score must meet RankSlots' precondition.
func PlaceGroupsScored(n int, degrees []int, score func(DeviceRange) float64) (GroupPlacement, error) {
	ranges, err := RankSlots(n, score).AppendPlace(make([]DeviceRange, 0, len(degrees)), degrees)
	if err != nil {
		return GroupPlacement{}, err
	}
	return GroupPlacement{Ranges: ranges}, nil
}

// SlotRanking is the one placement routine behind PlaceGroupsScored: every
// aligned slot of each power-of-two size, ranked best score first with ties
// to the lowest start (address order when the score is nil). A size is
// ranked when a placement first needs it, so a caller that places many
// degree multisets under one score scores each slot once instead of once
// per group per placement.
//
// A SlotRanking keeps scratch state between placements; it is not safe for
// concurrent use.
type SlotRanking struct {
	n     int
	score func(DeviceRange) float64
	// order[lg] lists the starts of the size-2^lg slots best first; nil
	// until first needed.
	order [][]int
	// used is the device bitset of the placement in progress.
	used []uint64
}

// RankSlots returns the slot ranking of an n-device cluster under score.
// The score must be a pure function of the slot that never returns NaN:
// each slot is scored once, however many placements consult it, where a
// per-group scan would re-score the free slots every time.
func RankSlots(n int, score func(DeviceRange) float64) *SlotRanking {
	devices := max(n, 0)
	return &SlotRanking{
		n:     n,
		score: score,
		order: make([][]int, bits.Len(uint(devices))),
		used:  make([]uint64, (devices+63)/64),
	}
}

// AppendPlace places one group per degree and appends their ranges to dst
// in input order. Groups are placed largest first, input order among equal
// degrees, each on the first slot of its size's ranking whose devices are
// all free: the free slot with the best score, ties to the lowest start. A
// slot found taken stays taken for the rest of the placement, so the
// cursor into each size's ranking only moves forward. On error dst is
// returned unextended.
func (rk *SlotRanking) AppendPlace(dst []DeviceRange, degrees []int) ([]DeviceRange, error) {
	total, sizes := 0, 0
	for _, d := range degrees {
		if d <= 0 || d&(d-1) != 0 {
			return dst, fmt.Errorf("cluster: degree %d is not a power of two", d)
		}
		total += d
		sizes |= d
	}
	if total > rk.n {
		return dst, fmt.Errorf("cluster: degrees sum to %d > %d devices", total, rk.n)
	}
	clear(rk.used)
	base := len(dst)
	dst = slices.Grow(dst, len(degrees))[:base+len(degrees)]
	for lg := bits.Len(uint(sizes)) - 1; lg >= 0; lg-- {
		d := 1 << lg
		if sizes&d == 0 {
			continue
		}
		order, c := rk.ranked(lg), 0
		for i, di := range degrees {
			if di != d {
				continue
			}
			for c < len(order) && !rk.free(order[c]) {
				c++
			}
			if c == len(order) {
				return dst[:base], fmt.Errorf("cluster: no aligned slot for degree %d", d)
			}
			rk.mark(order[c], d)
			dst[base+i] = DeviceRange{Start: order[c], Size: d}
			c++
		}
	}
	return dst, nil
}

// ranked returns the starts of the size-2^lg slots, best first.
func (rk *SlotRanking) ranked(lg int) []int {
	if order := rk.order[lg]; order != nil {
		return order
	}
	d := 1 << lg
	order := make([]int, 0, rk.n/d)
	for start := 0; start+d <= rk.n; start += d {
		order = append(order, start)
	}
	if rk.score != nil {
		scores := make([]float64, len(order)) // by start/d
		for i, start := range order {
			scores[i] = rk.score(DeviceRange{Start: start, Size: d})
		}
		// Stable on address order: ties keep the lowest start first.
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(scores[b>>lg], scores[a>>lg]) })
	}
	rk.order[lg] = order
	return order
}

// free reports whether the aligned slot at start is unclaimed. Its first
// device decides: groups are placed in non-increasing size order, so every
// claimed slot is at least as large as this one and, both being aligned,
// either contains it or is disjoint from it.
func (rk *SlotRanking) free(start int) bool {
	return rk.used[start>>6]>>(start&63)&1 == 0
}

// mark claims every device of the aligned slot [start, start+d).
func (rk *SlotRanking) mark(start, d int) {
	w := start >> 6
	if d < 64 {
		rk.used[w] |= (1<<d - 1) << (start & 63)
		return
	}
	for i := w; i < w+d>>6; i++ {
		rk.used[i] = ^uint64(0)
	}
}

// Validate checks the placement invariants against a cluster of n devices.
func (p GroupPlacement) Validate(n int) error {
	used := make([]bool, n)
	for _, r := range p.Ranges {
		if !r.Aligned() {
			return fmt.Errorf("cluster: range %v is not aligned", r)
		}
		if r.Size&(r.Size-1) != 0 {
			return fmt.Errorf("cluster: range %v is not a power of two", r)
		}
		if r.Start < 0 || r.End() > n {
			return fmt.Errorf("cluster: range %v exceeds %d devices", r, n)
		}
		for dev := r.Start; dev < r.End(); dev++ {
			if used[dev] {
				return fmt.Errorf("cluster: device %d placed twice", dev)
			}
			used[dev] = true
		}
	}
	return nil
}
