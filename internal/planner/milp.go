package planner

import (
	"context"
	"sort"
	"time"

	"flexsp/internal/bucket"
	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/milp"
)

// milpSlot is one group problem (17) may select: its degree, the device
// range it occupies (zero for a virtual group) and the coefficients that
// price it there.
type milpSlot struct {
	degree int
	r      cluster.DeviceRange
	c      costmodel.Coeffs
}

// milpModel is problem (17) built for one micro-batch: the model over the
// slots and buckets, with the indices of its variables.
type milpModel struct {
	m       *milp.Model
	pr      costmodel.Pricing
	slots   []milpSlot
	buckets []bucket.Bucket
	cVar    int     // C: the makespan
	mVar    []int   // m_p: slot selection
	aVar    [][]int // A_{q,p}: sequences of bucket q assigned to slot p
}

// planMILP solves the paper's bucketed MILP formulation (problem 17) with
// the internal branch-and-bound solver. The search is warm-started with the
// enumerative plan, so under a time budget the result is never worse than
// StrategyEnum's.
func (pl *Planner) planMILP(ctx context.Context, lens []int) (MicroPlan, error) {
	if len(lens) == 0 {
		return MicroPlan{}, nil
	}
	f, err := pl.buildMILP(lens)
	if err != nil {
		return MicroPlan{}, err
	}
	var incumbent []float64
	warm, warmErr := pl.planEnum(ctx, lens)
	if warmErr == nil {
		incumbent = f.encode(warm)
	}

	limit := pl.MILPTimeLimit
	if limit <= 0 {
		limit = 10 * time.Second
	}
	// A small relative gap matches practice: the paper accepts SCIP's first
	// good solution within its 5–15s window rather than a proven optimum.
	sol := milp.SolveContext(ctx, f.m, milp.Options{
		TimeLimit: limit, Incumbent: incumbent, Gap: 0.02,
	})
	if sol.Status != milp.StatusOptimal && sol.Status != milp.StatusFeasible {
		return MicroPlan{}, ErrInfeasible
	}
	plan := f.extract(sol.X)
	// Under a time budget or a relative gap the branch and bound may settle
	// for a feasible-within-gap point; the enumerative warm start is a floor
	// on plan quality, so never return anything worse than it.
	if warmErr == nil && warm.Time < plan.Time {
		return warm, nil
	}
	return plan, nil
}

// buildMILP builds problem (17) for one micro-batch without solving it.
//
// A placing planner has one slot per aligned range of the fleet, so choosing
// a group is choosing its device-class region, priced by that region;
// overlapping slots exclude each other by one packing row per device
// (aligned power-of-two slots overlap only by containment). A scalar planner
// has min(N/d, K) zero-range virtual groups per degree d — more groups than
// sequences can never all be occupied — under Σ d·m ≤ N, with symmetry rows
// ordering its interchangeable same-degree groups.
func (pl *Planner) buildMILP(lens []int) (*milpModel, error) {
	pr := pl.Pricing()
	n := pr.Fleet.Topo.NumDevices()
	buckets := pl.bucketize(lens)
	if overCapacity(buckets, pr.TokenCapacity()) {
		return nil, ErrInfeasible
	}
	k := len(lens)

	var slots []milpSlot
	for _, d := range pr.Fleet.SPDegrees() {
		if pl.Places() {
			for start := 0; start+d <= n; start += d {
				r := cluster.DeviceRange{Start: start, Size: d}
				slots = append(slots, milpSlot{degree: d, r: r, c: pr.Group(r)})
			}
			continue
		}
		for i := 0; i < min(n/d, k); i++ {
			slots = append(slots, milpSlot{degree: d, c: pr.Fleet})
		}
	}
	p, q := len(slots), len(buckets)

	m := milp.NewModel()
	f := &milpModel{m: m, pr: pr, slots: slots, buckets: buckets, mVar: make([]int, p), aVar: make([][]int, q)}
	f.cVar = m.AddVar(0, milp.Inf, 1, false, "C")
	for pi := range slots {
		f.mVar[pi] = m.AddVar(0, 1, 0, true, "m")
	}
	for qi, b := range buckets {
		f.aVar[qi] = make([]int, p)
		for pi := range slots {
			f.aVar[qi][pi] = m.AddVar(0, float64(b.Count()), 0, true, "A")
		}
	}

	for pi, s := range slots {
		// Time (Cond. 18): Σ_q A·t + (β1+β2)·m_p ≤ C, one row per affine
		// piece of the slot's group time (Coeffs.Pieces). C is minimised, so
		// at an optimum it meets the largest piece of the slowest group: the
		// rows are exact for ring CP's two pieces as for Ulysses' one.
		for _, pc := range s.c.Pieces(s.degree) {
			terms := []milp.Term{{Var: f.cVar, Coef: -1}, {Var: f.mVar[pi], Coef: pc.Beta1 + pc.Beta2}}
			for qi, b := range buckets {
				sz := float64(b.Upper)
				unit := (pc.Alpha1*sz*sz+pc.Alpha2*sz)/pc.D + sz*pc.Comm
				terms = append(terms, milp.Term{Var: f.aVar[qi][pi], Coef: unit})
			}
			m.AddConstraint(terms, milp.LE, 0, "time")
		}

		// Memory (Cond. 19): Σ_q A·ŝ ≤ the slot's group token capacity.
		memTerms := make([]milp.Term, 0, q)
		for qi, b := range buckets {
			memTerms = append(memTerms, milp.Term{Var: f.aVar[qi][pi], Coef: float64(b.Upper)})
		}
		m.AddConstraint(memTerms, milp.LE, float64(s.c.MaxTokensPerGroup(s.degree)), "mem")

		// Linking (Cond. 21): Σ_q A ≤ K·m_p.
		linkTerms := make([]milp.Term, 0, q+1)
		for qi := range buckets {
			linkTerms = append(linkTerms, milp.Term{Var: f.aVar[qi][pi], Coef: 1})
		}
		linkTerms = append(linkTerms, milp.Term{Var: f.mVar[pi], Coef: -float64(k)})
		m.AddConstraint(linkTerms, milp.LE, 0, "link")
	}

	if pl.Places() {
		// Packing (generalizes Cond. 20): overlapping slots exclude each other.
		for dev := 0; dev < n; dev++ {
			var devTerms []milp.Term
			for pi, s := range slots {
				if s.r.Start <= dev && dev < s.r.End() {
					devTerms = append(devTerms, milp.Term{Var: f.mVar[pi], Coef: 1})
				}
			}
			m.AddConstraint(devTerms, milp.LE, 1, "pack")
		}
	} else {
		// Devices (Cond. 20): Σ_p d_p·m_p ≤ N.
		devTerms := make([]milp.Term, 0, p)
		for pi, s := range slots {
			devTerms = append(devTerms, milp.Term{Var: f.mVar[pi], Coef: float64(s.degree)})
		}
		m.AddConstraint(devTerms, milp.LE, float64(n), "devices")
	}

	// Assignment (Cond. 22): Σ_p A_{q,p} = b̂_q.
	for qi, b := range buckets {
		asTerms := make([]milp.Term, 0, p)
		for pi := range slots {
			asTerms = append(asTerms, milp.Term{Var: f.aVar[qi][pi], Coef: 1})
		}
		m.AddConstraint(asTerms, milp.EQ, float64(b.Count()), "assign")
	}

	if pl.Places() {
		return f, nil
	}
	// Symmetry breaking: same-degree virtual groups are interchangeable;
	// order selection flags and token loads.
	for pi := 0; pi+1 < p; pi++ {
		if slots[pi].degree != slots[pi+1].degree {
			continue
		}
		m.AddConstraint([]milp.Term{{Var: f.mVar[pi], Coef: 1}, {Var: f.mVar[pi+1], Coef: -1}},
			milp.GE, 0, "sym-m")
		loadTerms := make([]milp.Term, 0, 2*q)
		for qi, b := range buckets {
			sz := float64(b.Upper)
			loadTerms = append(loadTerms,
				milp.Term{Var: f.aVar[qi][pi], Coef: sz},
				milp.Term{Var: f.aVar[qi][pi+1], Coef: -sz})
		}
		m.AddConstraint(loadTerms, milp.GE, 0, "sym-load")
	}
	return f, nil
}

// encode converts a plan into a variable assignment of the model for warm
// starting. Each group takes the slot of its range; on the scalar
// formulation, whose groups are unplaced, that is the next free virtual
// group of its degree, heaviest first so that the symmetry rows hold.
// Returns nil if the plan cannot be encoded (more groups of one degree than
// virtual groups, or a point the bucketed model rejects).
func (f *milpModel) encode(p MicroPlan) []float64 {
	bucketOf := func(l int) int {
		for qi, b := range f.buckets {
			if l <= b.Upper {
				return qi
			}
		}
		return len(f.buckets) - 1
	}
	repTokens := func(g Group) float64 {
		var t float64
		for _, l := range g.Lens {
			t += float64(f.buckets[bucketOf(l)].Upper)
		}
		return t
	}
	groups := append([]Group(nil), p.Groups...)
	sort.SliceStable(groups, func(i, j int) bool {
		if groups[i].Degree != groups[j].Degree {
			return groups[i].Degree > groups[j].Degree
		}
		return repTokens(groups[i]) > repTokens(groups[j])
	})

	type slotKey struct {
		r      cluster.DeviceRange
		degree int
	}
	free := map[slotKey][]int{}
	for pi, s := range f.slots {
		key := slotKey{s.r, s.degree}
		free[key] = append(free[key], pi)
	}
	x := make([]float64, f.m.NumVars())
	maxTime := 0.0
	for _, g := range groups {
		key := slotKey{g.Range, g.Degree}
		if len(free[key]) == 0 {
			return nil
		}
		pi := free[key][0]
		free[key] = free[key][1:]
		x[f.mVar[pi]] = 1
		var sumS, sumS2 float64
		for _, l := range g.Lens {
			qi := bucketOf(l)
			x[f.aVar[qi][pi]]++
			s := float64(f.buckets[qi].Upper)
			sumS += s
			sumS2 += s * s
		}
		for _, pc := range f.slots[pi].c.Pieces(g.Degree) {
			maxTime = max(maxTime, pc.Time(sumS, sumS2))
		}
	}
	x[f.cVar] = maxTime + 1e-9
	if !f.m.Feasible(x) {
		return nil
	}
	return x
}

// extract turns a solution's counts per (bucket, slot) into the plan: actual
// sequences, longest first within each bucket, on every selected slot that
// received any, each group carrying its slot's range.
func (f *milpModel) extract(x []float64) MicroPlan {
	remaining := make([][]int, len(f.buckets))
	for qi, b := range f.buckets {
		remaining[qi] = append([]int(nil), b.Lens...)
		sort.Sort(sort.Reverse(sort.IntSlice(remaining[qi])))
	}
	var plan MicroPlan
	for pi, s := range f.slots {
		if x[f.mVar[pi]] < 0.5 {
			continue
		}
		var glens []int
		for qi := range f.buckets {
			cnt := int(x[f.aVar[qi][pi]] + 0.5)
			for j := 0; j < cnt && len(remaining[qi]) > 0; j++ {
				glens = append(glens, remaining[qi][0])
				remaining[qi] = remaining[qi][1:]
			}
		}
		if len(glens) == 0 {
			continue
		}
		sort.Sort(sort.Reverse(sort.IntSlice(glens)))
		plan.Groups = append(plan.Groups, Group{Degree: s.degree, Lens: glens, Range: s.r})
	}
	sort.SliceStable(plan.Groups, func(i, j int) bool { return plan.Groups[i].Degree > plan.Groups[j].Degree })
	plan.recomputeTime(f.pr)
	return plan
}
