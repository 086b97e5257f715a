package cluster

import (
	"fmt"
	"sort"
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
func PlaceGroupsScored(n int, degrees []int, score func(DeviceRange) float64) (GroupPlacement, error) {
	total := 0
	for _, d := range degrees {
		if d <= 0 || d&(d-1) != 0 {
			return GroupPlacement{}, fmt.Errorf("cluster: degree %d is not a power of two", d)
		}
		total += d
	}
	if total > n {
		return GroupPlacement{}, fmt.Errorf("cluster: degrees sum to %d > %d devices", total, n)
	}

	// Sort indices by degree descending so big groups claim aligned blocks
	// before fragmentation can occur, then restore input order in output.
	idx := make([]int, len(degrees))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return degrees[idx[a]] > degrees[idx[b]] })

	used := make([]bool, n)
	ranges := make([]DeviceRange, len(degrees))
	for _, i := range idx {
		d := degrees[i]
		best, bestScore := -1, 0.0
		for start := 0; start+d <= n; start += d {
			free := true
			for dev := start; dev < start+d; dev++ {
				if used[dev] {
					free = false
					break
				}
			}
			if !free {
				continue
			}
			if score == nil {
				best = start
				break
			}
			if s := score(DeviceRange{Start: start, Size: d}); best == -1 || s > bestScore {
				best, bestScore = start, s
			}
		}
		if best == -1 {
			return GroupPlacement{}, fmt.Errorf("cluster: no aligned slot for degree %d", d)
		}
		for dev := best; dev < best+d; dev++ {
			used[dev] = true
		}
		ranges[i] = DeviceRange{Start: best, Size: d}
	}
	return GroupPlacement{Ranges: ranges}, nil
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
