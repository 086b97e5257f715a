package planner

import "flexsp/internal/cluster"

// This file holds what placing groups on a mixed fleet adds to planning: the
// planner decides not only each SP group's degree but which device-class
// region it lands on. A group's cost depends on its placement
// (slowest-device compute pacing, minimum-memory capacity, bottleneck
// bandwidth — costmodel.Pricing), so planEnum scans each degree multiset
// under several placement biases — long sequences gravitate to fast
// regions, token-heavy groups to large-memory ones — and the MILP chooses
// among every aligned slot.

// placementBiases are the slot-preference functions tried per degree
// multiset on a mixed fleet: fastest-region-first (long sequences want
// FLOPS), largest-memory first (token-heavy groups want headroom), and
// lowest-address (the class-oblivious order). Ties always break to the
// lowest address.
func placementBiases(memo *groupMemo) []func(cluster.DeviceRange) float64 {
	fast := func(r cluster.DeviceRange) float64 { return memo.get(r.Size, r).c.Topo.EffFLOPS }
	roomy := func(r cluster.DeviceRange) float64 { return float64(memo.get(r.Size, r).c.Topo.UsableMemory()) }
	return []func(cluster.DeviceRange) float64{fast, roomy, nil}
}

// sameRanges reports whether two placements occupy the same set of device
// ranges. at is scratch with an entry per device, zero on entry and on
// return. Each placement's ranges are disjoint, so a range is identified by
// its start, and equal lengths plus containment mean equal sets.
func sameRanges(a, b []cluster.DeviceRange, at []int) bool {
	for _, r := range a {
		at[r.Start] = r.Size
	}
	same := len(a) == len(b)
	for _, r := range b {
		if !same {
			break
		}
		same = at[r.Start] == r.Size
	}
	for _, r := range a {
		at[r.Start] = 0
	}
	return same
}
