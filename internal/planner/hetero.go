package planner

import (
	"context"
	"sort"
	"time"

	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/milp"
)

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

// planPlacedMILP solves the placed generalization of problem (17): one
// binary selection variable per aligned slot of the fleet, so choosing a
// group IS choosing its device-class region, with per-slot time and memory
// coefficients from that region's pricing. Overlap is excluded by
// per-device packing constraints (aligned power-of-two slots overlap only by
// containment, so each device's chain of ≤ log N slots gets one constraint).
// Warm-started by the placed enumerative plan.
func (pl *Planner) planPlacedMILP(ctx context.Context, lens []int) (MicroPlan, error) {
	if len(lens) == 0 {
		return MicroPlan{}, nil
	}
	pr := pl.Pricing()
	n := pr.Fleet.Topo.NumDevices()
	buckets := pl.bucketize(lens)
	if overCapacity(buckets, pr.TokenCapacity()) {
		return MicroPlan{}, ErrInfeasible
	}
	k := len(lens)

	type slot struct {
		r    cluster.DeviceRange
		eval costmodel.Coeffs
	}
	var slots []slot
	slotIdx := map[cluster.DeviceRange]int{}
	for _, d := range pr.Fleet.SPDegrees() {
		for start := 0; start+d <= n; start += d {
			r := cluster.DeviceRange{Start: start, Size: d}
			slotIdx[r] = len(slots)
			slots = append(slots, slot{r: r, eval: pr.Group(r)})
		}
	}
	p := len(slots)
	q := len(buckets)

	m := milp.NewModel()
	cVar := m.AddVar(0, milp.Inf, 1, false, "C")
	mVar := make([]int, p)
	for i := range slots {
		mVar[i] = m.AddVar(0, 1, 0, true, "m")
	}
	aVar := make([][]int, q)
	for qi := range buckets {
		aVar[qi] = make([]int, p)
		for pi := 0; pi < p; pi++ {
			aVar[qi][pi] = m.AddVar(0, float64(buckets[qi].Count()), 0, true, "A")
		}
	}

	for pi, sl := range slots {
		deg := sl.r.Size
		e := sl.eval
		// Time (Cond. 18) with the slot's own coefficients.
		terms := []milp.Term{{Var: cVar, Coef: -1}}
		beta := e.Beta1
		if deg > 1 {
			beta += e.Beta2
		}
		terms = append(terms, milp.Term{Var: mVar[pi], Coef: beta})
		for qi := range buckets {
			s := float64(buckets[qi].Upper)
			unit := (e.Alpha1*s*s+e.Alpha2*s)/float64(deg) + s*e.CommUnitTime(deg)
			terms = append(terms, milp.Term{Var: aVar[qi][pi], Coef: unit})
		}
		m.AddConstraint(terms, milp.LE, 0, "time")

		// Memory (Cond. 19) against the slot's minimum-memory class.
		memTerms := make([]milp.Term, 0, q)
		for qi := range buckets {
			memTerms = append(memTerms, milp.Term{Var: aVar[qi][pi], Coef: float64(buckets[qi].Upper)})
		}
		m.AddConstraint(memTerms, milp.LE, float64(e.MaxTokensPerGroup(deg)), "mem")

		// Linking (Cond. 21).
		linkTerms := make([]milp.Term, 0, q+1)
		for qi := range buckets {
			linkTerms = append(linkTerms, milp.Term{Var: aVar[qi][pi], Coef: 1})
		}
		linkTerms = append(linkTerms, milp.Term{Var: mVar[pi], Coef: -float64(k)})
		m.AddConstraint(linkTerms, milp.LE, 0, "link")
	}

	// Packing (generalizes Cond. 20): overlapping slots exclude each other.
	for dev := 0; dev < n; dev++ {
		var devTerms []milp.Term
		for pi, sl := range slots {
			if sl.r.Start <= dev && dev < sl.r.End() {
				devTerms = append(devTerms, milp.Term{Var: mVar[pi], Coef: 1})
			}
		}
		m.AddConstraint(devTerms, milp.LE, 1, "pack")
	}

	// Assignment (Cond. 22).
	for qi := range buckets {
		asTerms := make([]milp.Term, 0, p)
		for pi := 0; pi < p; pi++ {
			asTerms = append(asTerms, milp.Term{Var: aVar[qi][pi], Coef: 1})
		}
		m.AddConstraint(asTerms, milp.EQ, float64(buckets[qi].Count()), "assign")
	}

	// Warm start from the placed enumerative plan: its aligned ranges map
	// one-to-one onto slots.
	var incumbent []float64
	var warmPlan MicroPlan
	haveWarm := false
	if warm, err := pl.planEnum(ctx, lens); err == nil {
		warmPlan, haveWarm = warm, true
		x := make([]float64, m.NumVars())
		bucketOf := func(l int) int {
			for qi, b := range buckets {
				if l <= b.Upper {
					return qi
				}
			}
			return len(buckets) - 1
		}
		maxTime := 0.0
		ok := true
		for _, g := range warm.Groups {
			pi, found := slotIdx[g.Range]
			if !found {
				ok = false
				break
			}
			x[mVar[pi]] = 1
			e := slots[pi].eval
			var sumS, sumS2 float64
			for _, l := range g.Lens {
				qi := bucketOf(l)
				x[aVar[qi][pi]]++
				s := float64(buckets[qi].Upper)
				sumS += s
				sumS2 += s * s
			}
			t := (e.Alpha1*sumS2+e.Alpha2*sumS)/float64(g.Degree) + e.Beta1
			if g.Degree > 1 {
				t += sumS*e.CommUnitTime(g.Degree) + e.Beta2
			}
			if t > maxTime {
				maxTime = t
			}
		}
		if ok {
			x[cVar] = maxTime + 1e-9
			if m.Feasible(x) {
				incumbent = x
			}
		}
	}

	limit := pl.MILPTimeLimit
	if limit <= 0 {
		limit = 10 * time.Second
	}
	sol := milp.SolveContext(ctx, m, milp.Options{
		TimeLimit: limit, Incumbent: incumbent, Gap: 0.02,
	})
	if sol.Status != milp.StatusOptimal && sol.Status != milp.StatusFeasible {
		return MicroPlan{}, ErrInfeasible
	}

	remaining := make([][]int, q)
	for qi, b := range buckets {
		remaining[qi] = append([]int(nil), b.Lens...)
		sort.Sort(sort.Reverse(sort.IntSlice(remaining[qi])))
	}
	var plan MicroPlan
	for pi, sl := range slots {
		if sol.X[mVar[pi]] < 0.5 {
			continue
		}
		var glens []int
		for qi := range buckets {
			cnt := int(sol.X[aVar[qi][pi]] + 0.5)
			for j := 0; j < cnt && len(remaining[qi]) > 0; j++ {
				glens = append(glens, remaining[qi][0])
				remaining[qi] = remaining[qi][1:]
			}
		}
		if len(glens) == 0 {
			continue
		}
		sort.Sort(sort.Reverse(sort.IntSlice(glens)))
		plan.Groups = append(plan.Groups, Group{Degree: sl.r.Size, Lens: glens, Range: sl.r})
		if t := sl.eval.GroupTime(glens, sl.r.Size); t > plan.Time {
			plan.Time = t
		}
	}
	sort.SliceStable(plan.Groups, func(i, j int) bool { return plan.Groups[i].Degree > plan.Groups[j].Degree })
	// The placed enumerative warm start is a floor on plan quality: under a
	// time budget or relative gap, never return anything worse than it.
	if haveWarm && warmPlan.Time < plan.Time {
		return warmPlan, nil
	}
	return plan, nil
}
