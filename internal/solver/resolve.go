package solver

import (
	"context"
	"fmt"
	"sort"

	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/obs"
	"flexsp/internal/planner"
)

// ResolveOptions tunes the incremental re-solver.
type ResolveOptions struct {
	// ColdFraction is the repair give-up threshold: when more than this
	// fraction of the fleet changed between the snapshots, Resolve skips
	// plan repair and solves cold. Zero defaults to 0.5.
	ColdFraction float64
}

// ResolveStats reports what the re-solver did.
type ResolveStats struct {
	// Cold is set when Resolve fell back to a cold solve (no incumbent,
	// unplaced incumbent plans, or delta beyond ColdFraction).
	Cold bool `json:"cold"`
	// ChangedFraction is the fraction of fleet nodes lost, added, or
	// re-classed between the snapshots; ChangedDevices the device count.
	ChangedFraction float64 `json:"changedFraction"`
	ChangedDevices  int     `json:"changedDevices"`
	// KeptGroups mapped onto the new fleet untouched; ReplacedGroups were
	// re-placed onto new device ranges; MovedSequences were redistributed
	// out of groups that no longer fit anywhere.
	KeptGroups     int `json:"keptGroups"`
	ReplacedGroups int `json:"replacedGroups"`
	MovedSequences int `json:"movedSequences"`
	// RepairedPlans and DroppedPlans partition the incumbent's warm-store
	// micro-plans: repaired ones seed the warm solve, dropped ones are
	// re-planned from scratch.
	RepairedPlans int `json:"repairedPlans"`
	DroppedPlans  int `json:"droppedPlans"`
	// WarmHits counts micro-batches the repaired warm store satisfied
	// during the final solve.
	WarmHits int `json:"warmHits"`
}

// Resolve incrementally re-solves batch after the fleet changed from old to
// new: it repairs the incumbent's micro-plans — keeping groups whose devices
// survived (cluster.MapRange), re-placing only groups touching lost or
// degraded devices, and redistributing sequences of groups that fit nowhere
// — then warm-starts SolveWarm from the repaired store, also pre-publishing
// it into the shared plan cache so trial windows shifted by the capacity
// change still hit. The receiver must be the solver built for the NEW
// topology. When the planning view is unchanged, Resolve reduces to
// SolveWarm and the result is byte-identical to the cold solve that
// produced the incumbent; when the delta exceeds opts.ColdFraction (or
// there is nothing to repair) it falls back to a cold solve.
func (s *Solver) Resolve(ctx context.Context, batch []int, inc *Incumbent, old, new cluster.Snapshot, opts ResolveOptions) (Result, *Incumbent, ResolveStats, error) {
	ctx, span := obs.Start(ctx, "solver.resolve")
	defer span.End()
	var stats ResolveStats

	if cluster.SameView(old, new) && inc != nil {
		span.SetAttr("tier", "unchanged")
		res, ninc, err := s.SolveWarm(ctx, batch, inc)
		if ninc != nil {
			stats.WarmHits = ninc.WarmHits()
			stats.KeptGroups = countGroups(res.Plans)
		}
		if err != nil {
			span.SetError(err)
		}
		return res, ninc, stats, err
	}

	stats.ChangedFraction, stats.ChangedDevices = changedFraction(old, new)
	span.SetAttr("changed_fraction", stats.ChangedFraction)
	coldAt := opts.ColdFraction
	if coldAt <= 0 {
		coldAt = 0.5
	}
	if inc == nil || !s.Planner.Places() || stats.ChangedFraction > coldAt || !placedIncumbent(inc) {
		stats.Cold = true
		span.SetAttr("tier", "cold")
		res, ninc, err := s.SolveWarm(ctx, batch, nil)
		if err != nil {
			span.SetError(err)
		}
		return res, ninc, stats, err
	}

	// Repair the incumbent's warm store entry by entry. Each entry is one
	// micro-batch's plan and occupies the fleet on its own (micro-batches
	// run sequentially), so repairs are independent.
	pr := s.Planner.Pricing()
	ev := pr.Evaluator()
	repaired := newMicroStore()
	inc.store.mu.Lock()
	entries := make([]storeEntry, 0, len(inc.store.m))
	for _, e := range inc.store.m {
		entries = append(entries, e)
	}
	inc.store.mu.Unlock()
	for _, e := range entries {
		plan, rs, ok := repairPlan(pr, ev, old, new, e.plan, e.sig)
		if !ok {
			stats.DroppedPlans++
			continue
		}
		stats.RepairedPlans++
		stats.KeptGroups += rs.kept
		stats.ReplacedGroups += rs.replaced
		stats.MovedSequences += rs.moved
		repaired.put(e.sig, sigHash(e.sig), plan)
	}
	span.SetAttr("repaired", stats.RepairedPlans)
	span.SetAttr("dropped", stats.DroppedPlans)

	// Capacity shifts move the trial window [m_min, m_min+trials), so some
	// micro signatures the new solve needs were never in the incumbent.
	// Publishing the repaired plans into the shared rounded cache lets
	// those retarget instead of planning cold.
	s.publishStore(repaired)
	res, ninc, err := s.SolveWarm(ctx, batch, &Incumbent{store: repaired})
	if err != nil {
		span.SetError(err)
		return Result{}, nil, stats, err
	}
	stats.WarmHits = ninc.WarmHits()
	span.SetAttr("warm_hits", stats.WarmHits)
	return res, ninc, stats, nil
}

// placedIncumbent reports whether every group of the incumbent's best plans
// is placed — scalar (homogeneous, unplaced) incumbents have no placement
// to repair, so Resolve solves them cold.
func placedIncumbent(inc *Incumbent) bool {
	for _, mp := range inc.res.Plans {
		for _, g := range mp.Groups {
			if !g.Placed() {
				return false
			}
		}
	}
	return len(inc.res.Plans) > 0
}

func countGroups(plans []planner.MicroPlan) int {
	n := 0
	for _, mp := range plans {
		n += len(mp.Groups)
	}
	return n
}

// changedFraction measures the topology delta: nodes lost, added, or
// re-classed (derated stragglers change class identity) over the larger
// fleet's node count.
func changedFraction(old, new cluster.Snapshot) (float64, int) {
	classOf := make(map[int]cluster.DeviceClass, len(old.Nodes))
	for i, phys := range old.Nodes {
		classOf[phys] = old.Classes[i]
	}
	seen := make(map[int]bool, len(new.Nodes))
	changed := 0
	for i, phys := range new.Nodes {
		seen[phys] = true
		if c, ok := classOf[phys]; !ok || c != new.Classes[i] {
			changed++
		}
	}
	for phys := range classOf {
		if !seen[phys] {
			changed++
		}
	}
	denom := len(old.Nodes)
	if len(new.Nodes) > denom {
		denom = len(new.Nodes)
	}
	if denom == 0 {
		return 1, changed * old.Per
	}
	return float64(changed) / float64(denom), changed * old.Per
}

type repairInfo struct {
	kept, replaced, moved int
}

// repairPlan rebuilds one placed micro-plan for the new fleet: groups whose
// device ranges map cleanly are kept, dirty groups are re-placed onto the
// cheapest free aligned slot, and groups that fit nowhere have their
// sequences redistributed into surviving groups. Returns false when the
// plan cannot be made valid (the caller re-plans that micro-batch).
func repairPlan(pr costmodel.Pricing, ev *costmodel.GroupEvaluator, old, new cluster.Snapshot, mp planner.MicroPlan, sig []int32) (planner.MicroPlan, repairInfo, bool) {
	var info repairInfo
	n := new.NumDevices()
	if n == 0 {
		return planner.MicroPlan{}, info, false
	}
	// Deep-copy: warm-store entries share Group slices with the incumbent's
	// Result, which callers may still be executing.
	groups := make([]planner.Group, 0, len(mp.Groups))
	for _, g := range mp.Groups {
		g.Lens = append([]int(nil), g.Lens...)
		groups = append(groups, g)
	}
	used := make([]bool, n)
	var dirty []int
	for i := range groups {
		g := &groups[i]
		if !g.Placed() {
			return planner.MicroPlan{}, info, false
		}
		if nr, ok := cluster.MapRange(old, new, g.Range); ok {
			g.Range = nr
			markUsed(used, nr)
			info.kept++
		} else {
			dirty = append(dirty, i)
		}
	}
	// Re-place dirty groups, largest degree first (big groups have the
	// fewest candidate slots), onto the cheapest free aligned slot.
	sort.Slice(dirty, func(a, b int) bool {
		if groups[dirty[a]].Degree != groups[dirty[b]].Degree {
			return groups[dirty[a]].Degree > groups[dirty[b]].Degree
		}
		return dirty[a] < dirty[b]
	})
	var orphans []int
	for _, i := range dirty {
		g := &groups[i]
		r, ok := bestSlot(ev, used, n, g.Degree, g.Lens)
		if !ok {
			orphans = append(orphans, i)
			continue
		}
		g.Range = r
		markUsed(used, r)
		info.replaced++
	}
	// Orphaned groups (their degree no longer fits anywhere) hand their
	// sequences to surviving groups, longest first.
	if len(orphans) > 0 {
		orphaned := make(map[int]bool, len(orphans))
		for _, i := range orphans {
			orphaned[i] = true
		}
		for _, oi := range orphans {
			lens := groups[oi].Lens
			sort.Sort(sort.Reverse(sort.IntSlice(lens)))
			for _, l := range lens {
				best, bestT := -1, 0.0
				for j := range groups {
					if orphaned[j] {
						continue
					}
					gc := ev.Group(groups[j].Range)
					cand := append(groups[j].Lens, l)
					if !gc.Fits(cand, groups[j].Degree) {
						continue
					}
					if t := gc.GroupTime(cand, groups[j].Degree); best < 0 || t < bestT {
						best, bestT = j, t
					}
				}
				if best < 0 {
					return planner.MicroPlan{}, info, false
				}
				groups[best].Lens = append(groups[best].Lens, l)
				info.moved++
			}
		}
		kept := groups[:0]
		for j := range groups {
			if !orphaned[j] {
				kept = append(kept, groups[j])
			}
		}
		groups = kept
	}
	// Re-cost under the new fleet: a kept group's time is unchanged (equal
	// class, equal shape) but replaced and fattened groups move the
	// critical path.
	t := 0.0
	for i := range groups {
		gt := ev.Group(groups[i].Range).GroupTime(groups[i].Lens, groups[i].Degree)
		if gt > t {
			t = gt
		}
	}
	out := planner.MicroPlan{Groups: groups, Time: t}
	lens := make([]int, len(sig))
	for i, v := range sig {
		lens[i] = int(v)
	}
	if err := validateRepaired(pr, out, lens); err != nil {
		return planner.MicroPlan{}, info, false
	}
	return out, info, true
}

// validateRepaired double-checks a repaired plan with the planner's own
// validator; a repair bug must degrade to a re-plan, never to an invalid
// plan in the warm store.
func validateRepaired(pr costmodel.Pricing, mp planner.MicroPlan, lens []int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("solver: repaired plan validation panicked: %v", r)
		}
	}()
	return mp.Validate(pr, lens)
}

// bestSlot scans the free aligned slots of the given size and returns the
// one minimizing the group's time under the new cost model; ok is false
// when no free slot fits the group's memory footprint.
func bestSlot(ev *costmodel.GroupEvaluator, used []bool, n, size int, lens []int) (cluster.DeviceRange, bool) {
	var best cluster.DeviceRange
	bestT, found := 0.0, false
	for start := 0; start+size <= n; start += size {
		free := true
		for d := start; d < start+size; d++ {
			if used[d] {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		r := cluster.DeviceRange{Start: start, Size: size}
		gc := ev.Group(r)
		if !gc.Fits(lens, size) {
			continue
		}
		if t := gc.GroupTime(lens, size); !found || t < bestT {
			best, bestT, found = r, t, true
		}
	}
	return best, found
}

func markUsed(used []bool, r cluster.DeviceRange) {
	for d := r.Start; d < r.End() && d < len(used); d++ {
		used[d] = true
	}
}
