package planner

import (
	"context"
	"slices"
	"time"

	"flexsp/internal/bucket"
	"flexsp/internal/costmodel"
	"flexsp/internal/obs"
)

// Planner solves the per-micro-batch parallelism problem.
type Planner struct {
	// Coeffs is the whole-fleet cost model: the scalar coefficients, or on
	// a heterogeneous fleet (Hetero non-nil) its conservative bottleneck
	// view, which hetero-unaware callers (baselines) plan with.
	Coeffs costmodel.Coeffs
	// Hetero, when non-nil, prices each group by the device range it lands
	// on and makes the planner attach ranges to its groups: the enumerative
	// and MILP strategies decide each group's SP degree AND the
	// device-class region it lands on, while StrategyGreedy — the ablation
	// baseline the paper argues against — stays deliberately class-oblivious
	// (bottleneck model, lowest-address placement).
	Hetero *costmodel.HeteroCoeffs
	// Strategy selects the algorithm (default StrategyEnum).
	Strategy Strategy
	// Q is the sequence bucket count (default bucket.DefaultQ = 16).
	Q int
	// Bucketing selects how sequences are grouped before solving (default
	// the DP bucketing of §4.1.3; the alternatives exist for the Fig. 7
	// ablations).
	Bucketing BucketMode
	// MILPTimeLimit budgets the branch-and-bound search for StrategyMILP
	// (default 10s, matching the paper's 5–15s SCIP solves).
	MILPTimeLimit time.Duration
}

const (
	// refineTop is how many enumerated configurations receive local-search
	// refinement.
	refineTop = 6
	// refineIters caps local-search improvement steps.
	refineIters = 200
)

// New returns a Planner with the paper's defaults.
func New(c costmodel.Coeffs) *Planner {
	return &Planner{Coeffs: c, Q: bucket.DefaultQ}
}

// NewHetero returns a placement-aware Planner for a heterogeneous fleet: its
// plans carry a device range on every group, also when the fleet has a
// single class. Coeffs is set to the fleet's bottleneck view.
func NewHetero(h costmodel.HeteroCoeffs) *Planner {
	return &Planner{Coeffs: h.Bottleneck(), Hetero: &h, Q: bucket.DefaultQ}
}

// Pricing is how the planner prices an SP group by its device range: per
// range on a multi-class Hetero fleet, with Coeffs for every range
// otherwise.
func (pl *Planner) Pricing() costmodel.Pricing {
	if pl.Hetero != nil {
		return pl.Hetero.Pricing()
	}
	return pl.Coeffs.Pricing()
}

// Places reports whether the planner attaches a device range to every group
// it plans (NewHetero planners do; scalar planners leave placement to the
// executor).
func (pl *Planner) Places() bool { return pl.Hetero != nil }

// WithStyle returns a copy of the planner pricing groups under another
// communication style.
func (pl *Planner) WithStyle(s costmodel.CommStyle) *Planner {
	cp := *pl
	cp.Coeffs = pl.Coeffs.WithStyle(s)
	if pl.Hetero != nil {
		h := pl.Hetero.WithStyle(s)
		cp.Hetero = &h
	}
	return &cp
}

// effectiveQ resolves the bucket count without mutating the receiver (a
// Planner is shared by concurrent solves, so defaulting must not write
// through the pointer).
func (pl *Planner) effectiveQ() int {
	if pl.Q > 0 {
		return pl.Q
	}
	return bucket.DefaultQ
}

// TokenCapacity is the cluster's one-micro-batch activation token capacity
// under this planner's cost model, used by Alg. 1 to derive M_min.
func (pl *Planner) TokenCapacity() int {
	return pl.Pricing().TokenCapacity()
}

// Plan computes the SP-group configuration and sequence assignment for one
// micro-batch (paper §4.1). The returned plan's Time is the cost-model
// estimate of the makespan. A range-placing planner's groups also carry their
// device ranges.
func (pl *Planner) Plan(lens []int) (MicroPlan, error) {
	return pl.PlanContext(context.Background(), lens)
}

// PlanContext is Plan with tracing and (for StrategyMILP) cooperative
// cancellation. When a trace collector is installed it records a
// "planner.plan" span whose attrs carry the strategy, the candidate and
// refinement counts of the enumerative search, and the resulting makespan;
// the MILP strategies nest the branch-and-bound span beneath it.
func (pl *Planner) PlanContext(ctx context.Context, lens []int) (MicroPlan, error) {
	ctx, span := obs.Start(ctx, "planner.plan")
	defer span.End()
	span.SetAttr("strategy", pl.Strategy.String())
	span.SetAttr("seqs", len(lens))
	span.SetAttr("placed", pl.Places())
	mp, err := pl.planDispatch(ctx, lens)
	if err != nil {
		span.SetError(err)
	} else {
		span.SetAttr("est_time", mp.Time)
		span.SetAttr("groups", len(mp.Groups))
	}
	return mp, err
}

// planDispatch routes to the strategy implementation.
func (pl *Planner) planDispatch(ctx context.Context, lens []int) (MicroPlan, error) {
	switch pl.Strategy {
	case StrategyMILP:
		return pl.planMILP(ctx, lens)
	case StrategyGreedy:
		return pl.planGreedy(lens)
	default:
		return pl.planEnum(ctx, lens)
	}
}

// PlanHomogeneous finds the best single-degree plan for the micro-batch:
// the PlanFixedDegree plan of the degree d minimizing the makespan, over
// every degree from the smallest that holds the longest sequence up to
// min(MaxDegree, N). It is the homogeneous reference that
// TestEnumDominatesHomogeneous holds the flexible planners against; the
// FlexSP-BatchAda baseline (§6.1) is separate code, baselines.BatchAda.
func (pl *Planner) PlanHomogeneous(lens []int) (MicroPlan, error) {
	if len(lens) == 0 {
		return MicroPlan{}, nil
	}
	c := pl.Coeffs
	minDeg := c.MinDegreeFor(slices.Max(lens))
	if minDeg == 0 {
		return MicroPlan{}, ErrInfeasible
	}
	var best MicroPlan
	found := false
	for d := minDeg; d <= min(c.MaxDegree(), c.Topo.NumDevices()); d *= 2 {
		if p, err := pl.PlanFixedDegree(lens, d); err == nil && (!found || p.Time < best.Time) {
			best, found = p, true
		}
	}
	if !found {
		return MicroPlan{}, ErrInfeasible
	}
	return best, nil
}

// PlanFixedDegree builds a plan where every group has exactly the given
// degree (the fully static DeepSpeed-style layout). Fails if any sequence
// cannot fit a degree-d group.
func (pl *Planner) PlanFixedDegree(lens []int, degree int) (MicroPlan, error) {
	if len(lens) == 0 {
		return MicroPlan{}, nil
	}
	c := pl.Coeffs
	n := c.Topo.NumDevices()
	if !c.Topo.IsValidDegree(degree) || degree > c.MaxDegree() {
		return MicroPlan{}, ErrInfeasible
	}
	degrees := make([]int, n/degree)
	for i := range degrees {
		degrees[i] = degree
	}
	items := itemsFromBuckets(pl.bucketize(lens))
	a := newAssignment(c, degrees)
	if !a.place(items) {
		return MicroPlan{}, ErrInfeasible
	}
	a.refine(refineIters)
	return a.plan(nil), nil
}
