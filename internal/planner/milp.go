package planner

import (
	"context"
	"sort"
	"time"

	"flexsp/internal/bucket"
	"flexsp/internal/milp"
)

// planMILP solves the paper's bucketed MILP formulation (problem 17) with
// the internal branch-and-bound solver. The search is warm-started with the
// enumerative plan, so under a time budget the result is never worse than
// StrategyEnum's.
func (pl *Planner) planMILP(ctx context.Context, lens []int) (MicroPlan, error) {
	if len(lens) == 0 {
		return MicroPlan{}, nil
	}
	c := pl.Coeffs
	n := c.Topo.NumDevices()
	buckets := pl.bucketize(lens)
	if overCapacity(buckets, pl.TokenCapacity()) {
		return MicroPlan{}, ErrInfeasible
	}
	k := len(lens)

	// Virtual groups: every degree with up to min(N/d, K) copies —
	// more groups than sequences can never all be occupied.
	var vgroups []int // degree per virtual group
	for _, d := range c.SPDegrees() {
		copies := n / d
		if copies > k {
			copies = k
		}
		for i := 0; i < copies; i++ {
			vgroups = append(vgroups, d)
		}
	}
	p := len(vgroups)
	q := len(buckets)

	m := milp.NewModel()
	// C: the makespan.
	cVar := m.AddVar(0, milp.Inf, 1, false, "C")
	// m_p: group selection.
	mVar := make([]int, p)
	for i := range vgroups {
		mVar[i] = m.AddVar(0, 1, 0, true, "m")
	}
	// A_{q,p}: sequences of bucket q assigned to group p.
	aVar := make([][]int, q)
	for qi := range buckets {
		aVar[qi] = make([]int, p)
		for pi := 0; pi < p; pi++ {
			aVar[qi][pi] = m.AddVar(0, float64(buckets[qi].Count()), 0, true, "A")
		}
	}

	// Per-(bucket, degree) unit costs, memoized per distinct degree: virtual
	// groups repeat each degree up to N/d times, and CommUnitTime — which
	// keeps the row linear (for ring CP it is the conservative no-overlap
	// bound) — and the group token capacity depend only on the degree.
	unitByDeg := map[int][]float64{}
	capByDeg := map[int]float64{}
	for _, d := range vgroups {
		if _, ok := unitByDeg[d]; ok {
			continue
		}
		cu := c.CommUnitTime(d)
		units := make([]float64, q)
		for qi := range buckets {
			s := float64(buckets[qi].Upper)
			units[qi] = (c.Alpha1*s*s+c.Alpha2*s)/float64(d) + s*cu
		}
		unitByDeg[d] = units
		capByDeg[d] = float64(c.MaxTokensPerGroup(d))
	}
	unitTime := func(qi, degree int) float64 { return unitByDeg[degree][qi] }

	for pi, deg := range vgroups {
		// Time (Cond. 18): Σ_q A·t + (β1+β2)·m_p ≤ C.
		terms := []milp.Term{{Var: cVar, Coef: -1}}
		beta := c.Beta1
		if deg > 1 {
			beta += c.Beta2
		}
		terms = append(terms, milp.Term{Var: mVar[pi], Coef: beta})
		for qi := range buckets {
			terms = append(terms, milp.Term{Var: aVar[qi][pi], Coef: unitTime(qi, deg)})
		}
		m.AddConstraint(terms, milp.LE, 0, "time")

		// Memory (Cond. 19): Σ_q A·ŝ ≤ group token capacity.
		memTerms := make([]milp.Term, 0, q)
		for qi := range buckets {
			memTerms = append(memTerms, milp.Term{Var: aVar[qi][pi], Coef: float64(buckets[qi].Upper)})
		}
		m.AddConstraint(memTerms, milp.LE, capByDeg[deg], "mem")

		// Linking (Cond. 21): Σ_q A ≤ K·m_p.
		linkTerms := make([]milp.Term, 0, q+1)
		for qi := range buckets {
			linkTerms = append(linkTerms, milp.Term{Var: aVar[qi][pi], Coef: 1})
		}
		linkTerms = append(linkTerms, milp.Term{Var: mVar[pi], Coef: -float64(k)})
		m.AddConstraint(linkTerms, milp.LE, 0, "link")
	}

	// Devices (Cond. 20): Σ_p d_p·m_p ≤ N.
	devTerms := make([]milp.Term, 0, p)
	for pi, deg := range vgroups {
		devTerms = append(devTerms, milp.Term{Var: mVar[pi], Coef: float64(deg)})
	}
	m.AddConstraint(devTerms, milp.LE, float64(n), "devices")

	// Assignment (Cond. 22): Σ_p A_{q,p} = b̂_q.
	for qi := range buckets {
		asTerms := make([]milp.Term, 0, p)
		for pi := 0; pi < p; pi++ {
			asTerms = append(asTerms, milp.Term{Var: aVar[qi][pi], Coef: 1})
		}
		m.AddConstraint(asTerms, milp.EQ, float64(buckets[qi].Count()), "assign")
	}

	// Symmetry breaking: same-degree virtual groups are interchangeable;
	// order selection flags and token loads.
	for pi := 0; pi+1 < p; pi++ {
		if vgroups[pi] != vgroups[pi+1] {
			continue
		}
		m.AddConstraint([]milp.Term{{Var: mVar[pi], Coef: 1}, {Var: mVar[pi+1], Coef: -1}},
			milp.GE, 0, "sym-m")
		loadTerms := make([]milp.Term, 0, 2*q)
		for qi := range buckets {
			s := float64(buckets[qi].Upper)
			loadTerms = append(loadTerms,
				milp.Term{Var: aVar[qi][pi], Coef: s},
				milp.Term{Var: aVar[qi][pi+1], Coef: -s})
		}
		m.AddConstraint(loadTerms, milp.GE, 0, "sym-load")
	}

	// Warm start from the enumerative plan.
	var incumbent []float64
	var warmPlan MicroPlan
	haveWarm := false
	if warm, err := pl.planEnum(ctx, lens); err == nil {
		warmPlan, haveWarm = warm, true
		incumbent = pl.encodeIncumbent(m.NumVars(), cVar, mVar, aVar, vgroups, buckets, warm)
		if incumbent != nil && !m.Feasible(incumbent) {
			incumbent = nil
		}
	}

	limit := pl.MILPTimeLimit
	if limit <= 0 {
		limit = 10 * time.Second
	}
	// A small relative gap matches practice: the paper accepts SCIP's first
	// good solution within its 5–15s window rather than a proven optimum.
	sol := milp.SolveContext(ctx, m, milp.Options{
		TimeLimit: limit, Incumbent: incumbent, Gap: 0.02,
	})
	if sol.Status != milp.StatusOptimal && sol.Status != milp.StatusFeasible {
		return MicroPlan{}, ErrInfeasible
	}

	// Extract the plan: counts per (bucket, group) → actual sequences,
	// longest first within each bucket.
	remaining := make([][]int, q)
	for qi, b := range buckets {
		remaining[qi] = append([]int(nil), b.Lens...)
		sort.Sort(sort.Reverse(sort.IntSlice(remaining[qi])))
	}
	var plan MicroPlan
	for pi, deg := range vgroups {
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
		plan.Groups = append(plan.Groups, Group{Degree: deg, Lens: glens})
	}
	sort.SliceStable(plan.Groups, func(i, j int) bool { return plan.Groups[i].Degree > plan.Groups[j].Degree })
	plan.recomputeTime(c.Pricing())
	// Under a time budget or a relative gap the branch and bound may settle
	// for a feasible-within-gap point; the enumerative warm start is a floor
	// on plan quality, so never return anything worse than it.
	if haveWarm && warmPlan.Time < plan.Time {
		return warmPlan, nil
	}
	return plan, nil
}

// encodeIncumbent converts an enumerative plan into a variable assignment of
// the MILP for warm starting. Returns nil if the plan cannot be encoded
// (e.g. more groups of one degree than virtual slots).
func (pl *Planner) encodeIncumbent(nvars, cVar int, mVar []int, aVar [][]int,
	vgroups []int, buckets []bucket.Bucket, warm MicroPlan) []float64 {

	x := make([]float64, nvars)
	// Virtual slots per degree, in declaration order.
	slots := map[int][]int{}
	for pi, deg := range vgroups {
		slots[deg] = append(slots[deg], pi)
	}
	used := map[int]int{}

	// bucketOf(l): index of the bucket containing length l.
	bucketOf := func(l int) int {
		for qi, b := range buckets {
			if l <= b.Upper {
				return qi
			}
		}
		return len(buckets) - 1
	}

	// Sort groups of equal degree by descending token load to satisfy the
	// symmetry-breaking constraints.
	groups := append([]Group(nil), warm.Groups...)
	sort.SliceStable(groups, func(i, j int) bool {
		if groups[i].Degree != groups[j].Degree {
			return groups[i].Degree > groups[j].Degree
		}
		return repTokens(groups[i], buckets) > repTokens(groups[j], buckets)
	})

	maxTime := 0.0
	c := pl.Coeffs
	for _, g := range groups {
		sl := slots[g.Degree]
		if used[g.Degree] >= len(sl) {
			return nil
		}
		pi := sl[used[g.Degree]]
		used[g.Degree]++
		x[mVar[pi]] = 1
		var sumS, sumS2 float64
		for _, l := range g.Lens {
			qi := bucketOf(l)
			x[aVar[qi][pi]]++
			s := float64(buckets[qi].Upper)
			sumS += s
			sumS2 += s * s
		}
		t := (c.Alpha1*sumS2+c.Alpha2*sumS)/float64(g.Degree) + c.Beta1
		if g.Degree > 1 {
			t += sumS*c.CommUnitTime(g.Degree) + c.Beta2
		}
		if t > maxTime {
			maxTime = t
		}
	}
	x[cVar] = maxTime + 1e-9
	return x
}

// repTokens sums a group's lengths mapped to bucket representatives.
func repTokens(g Group, buckets []bucket.Bucket) float64 {
	var t float64
	for _, l := range g.Lens {
		for _, b := range buckets {
			if l <= b.Upper {
				t += float64(b.Upper)
				break
			}
		}
	}
	return t
}
