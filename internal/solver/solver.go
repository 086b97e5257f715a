// Package solver implements the overall FlexSP solver workflow (paper
// Alg. 1): given a global data batch, it derives the minimum feasible
// micro-batch count M_min, explores M ∈ [M_min, M_min+M′), blasts the batch
// into micro-batches for each M (internal/blaster), plans each micro-batch with
// the parallelism planner (internal/planner), and returns the plan sequence
// with the smallest total estimated time.
//
// The window is walked as a branch and bound, the one problem (17)'s MILP
// applies inside a micro-batch lifted to micro-batch counts: trials run in M
// order, each plans its micro-batches largest lower bound first
// (planner.LowerBound), and a trial is abandoned once its planned time plus
// the bounds of its unplanned micro-batches exceeds the best complete trial.
// The walk picks the same M and plans as planning the whole window would,
// without planning most of a losing trial. Micro-batches that the plan
// cache or an earlier trial of the same solve already answer skip the
// planner.
//
// One solve runs on its caller's goroutine. Parallelism lives a level up:
// callers that disaggregate solving from execution (§5) prefetch future
// batches through the facade's System.Plan on their own goroutines, and the
// daemon solves concurrent requests side by side.
package solver

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"flexsp/internal/blaster"
	"flexsp/internal/costmodel"
	"flexsp/internal/obs"
	"flexsp/internal/planner"
)

// Solver runs Alg. 1.
type Solver struct {
	// Planner plans each micro-batch.
	Planner *planner.Planner
	// Trials is M′, the number of micro-batch counts explored (default 5).
	Trials int
	// Sort controls the sequence-sorting step of the blaster (takeaway #2);
	// disabled only by the Fig. 7 "w/o Sort" ablation.
	Sort bool
	// Overhead is a fixed per-micro-batch cost (seconds) added to each
	// trial's total when comparing micro-batch counts — e.g. the exposed
	// ZeRO time, which grows with M (takeaway #1's fixed-cost argument).
	Overhead float64
	// Cache, when non-nil, memoizes micro-batch plans by bucketed length
	// signature, so recurring distributions skip the planner entirely.
	Cache *PlanCache

	stats solverStats
}

// solverStats holds the Solver's atomic counters behind Metrics.
type solverStats struct {
	solves   atomic.Int64
	canceled atomic.Int64
	planned  atomic.Int64
	deduped  atomic.Int64
}

// SolverMetrics is a point-in-time snapshot of a Solver's counters. Unlike
// CacheStats (plan-level reuse inside the PlanCache), these count whole
// Solve calls and planner invocations, so a serving layer can report how
// much planning work the daemon actually did.
type SolverMetrics struct {
	// Solves is the number of completed Solve/SolveContext calls.
	Solves int64 `json:"solves"`
	// Canceled is the number of calls that returned early because their
	// context was canceled.
	Canceled int64 `json:"canceled"`
	// Planned is the number of micro-batches that reached the planner. A
	// cache hit or a repeat within the solve avoids one planner invocation,
	// and a micro-batch of an abandoned trial is never planned.
	Planned int64 `json:"planned"`
	// Deduped is the number of micro-batches answered by an exact repeat
	// planned earlier in the same solve instead of planning.
	Deduped int64 `json:"deduped"`
}

// Metrics returns the solver's counter snapshot. The fields are individually
// atomic; to make the snapshot point-in-time consistent against concurrent
// solves it is re-read until two consecutive reads agree (bounded, since a
// hot solver may never quiesce — the final read is then the freshest view).
func (s *Solver) Metrics() SolverMetrics {
	read := func() SolverMetrics {
		return SolverMetrics{
			Solves:   s.stats.solves.Load(),
			Canceled: s.stats.canceled.Load(),
			Planned:  s.stats.planned.Load(),
			Deduped:  s.stats.deduped.Load(),
		}
	}
	prev := read()
	for i := 0; i < 3; i++ {
		cur := read()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}

// New returns a Solver with the paper's defaults.
func New(pl *planner.Planner) *Solver {
	return &Solver{Planner: pl, Trials: blaster.DefaultTrials, Sort: true}
}

// Result is the outcome of solving one data batch.
type Result struct {
	// Plans is the chosen micro-batch plan sequence.
	Plans []planner.MicroPlan
	// Time is Σ estimated micro-batch makespans.
	Time float64
	// M is the chosen micro-batch count.
	M int
	// MMin is the minimum feasible micro-batch count.
	MMin int
	// SolveWall is the wall-clock time the solve took.
	SolveWall time.Duration
	// Trials summarizes every explored micro-batch count — the rejected
	// alternatives behind the chosen M — for plan provenance (Explain).
	Trials []TrialSummary
}

// TrialSummary records one explored micro-batch count of Alg. 1.
type TrialSummary struct {
	// M is the micro-batch count tried.
	M int `json:"m"`
	// Time is the trial's total estimated time (0 when infeasible or
	// pruned).
	Time float64 `json:"time"`
	// Feasible reports whether every micro-batch found a plan.
	Feasible bool `json:"feasible"`
	// Note carries the failure reason for infeasible trials.
	Note string `json:"note,omitempty"`
	// Pruned marks a trial abandoned before all its micro-batches were
	// planned, because it provably could not beat an earlier trial.
	Pruned bool `json:"pruned,omitempty"`
	// Bound is a pruned trial's lower bound on its total time — its planned
	// micro-batches plus the lower bounds of the rest — which exceeded the
	// best complete trial's time.
	Bound float64 `json:"bound,omitempty"`
}

// ErrUnsolvable is returned when no explored micro-batch count yields a
// feasible plan.
var ErrUnsolvable = fmt.Errorf("solver: no feasible plan for batch")

// pruneMargin is the relative slack of the walk's stop rule: the bounds and
// the incumbent are float sums taken in different orders, so a trial is
// abandoned only when its bound exceeds the incumbent by more than rounding
// could explain, and the trial that would win is never cut.
const pruneMargin = 1e-9

// Solve runs Alg. 1 on one data batch of sequence lengths.
func (s *Solver) Solve(batch []int) (Result, error) {
	return s.SolveContext(context.Background(), batch)
}

// SolveContext is Solve with cancellation: the context is checked at every
// trial and micro-batch boundary, so a canceled request (an HTTP client gone
// away, a draining server) stops within one micro-batch plan. A canceled
// call returns ctx.Err(), never ErrUnsolvable.
func (s *Solver) SolveContext(ctx context.Context, batch []int) (Result, error) {
	return s.solve(ctx, batch, nil)
}

// solve is the Alg. 1 body behind SolveContext. A non-nil held takes the
// solve's plan-cache writes instead of the shared cache: a streaming
// session's background solve holds them until Close (see stream.go).
func (s *Solver) solve(ctx context.Context, batch []int, held *heldWrites) (Result, error) {
	start := time.Now()
	ctx, span := obs.Start(ctx, "solver.solve")
	defer span.End()
	span.SetAttr("seqs", len(batch))
	mmin := blaster.MinMicroBatches(batch, s.Planner.TokenCapacity())
	span.SetAttr("m_min", mmin)
	if mmin == 0 && len(batch) > 0 {
		span.SetError(ErrUnsolvable)
		return Result{}, ErrUnsolvable
	}
	if mmin == 0 {
		s.stats.solves.Add(1)
		return Result{SolveWall: time.Since(start)}, nil
	}

	best, err := s.walk(ctx, batch, mmin, &solveSource{
		s:    s,
		pr:   s.Planner.Pricing(),
		held: held,
		memo: make(map[uint64]repeatEntry),
	})
	if err == nil {
		err = ctx.Err() // canceled after the last trial
	}
	if err != nil {
		s.stats.canceled.Add(1)
		span.SetError(err)
		return Result{}, err
	}
	if math.IsInf(best.Time, 1) {
		span.SetError(ErrUnsolvable)
		return Result{}, ErrUnsolvable
	}
	best.SolveWall = time.Since(start)
	s.stats.solves.Add(1)
	span.SetAttr("m", best.M)
	span.SetAttr("est_time", best.Time)
	return best, nil
}

// walk runs Alg. 1's trial window from mmin as a branch and bound over src:
// the trials in M order, each abandoned once it provably cannot beat the
// best complete trial so far (the incumbent; ties keep the smaller M), and,
// when no trial of the window completes, the widening fallback. best.Time is
// +Inf when no trial completed. The walk stops early, returning ctx's error,
// when ctx is canceled.
func (s *Solver) walk(ctx context.Context, batch []int, mmin int, src *solveSource) (Result, error) {
	trials := s.Trials
	if trials <= 0 {
		trials = blaster.DefaultTrials
	}
	lb := s.Planner.LowerBound()
	best := Result{Time: math.Inf(1), MMin: mmin}
	try := func(m int) error {
		tr := s.runTrial(ctx, batch, m, best.Time, lb, src)
		if tr.err != nil && ctx.Err() != nil {
			return tr.err
		}
		best.Trials = append(best.Trials, tr.summary())
		if tr.err == nil && !tr.pruned && tr.time < best.Time {
			best.Plans, best.Time, best.M = tr.plans, tr.time, m
		}
		return nil
	}
	for m := mmin; m < mmin+trials; m++ {
		if err := try(m); err != nil {
			return best, err
		}
	}
	// Every trial in [M_min, M_min+M′) was infeasible — typically when a
	// conservative bucketing inflates memory estimates. Step past the window
	// M′ counts at a time rather than fail, through the same trial path.
	for m := mmin + trials; math.IsInf(best.Time, 1) && m <= len(batch); m += trials {
		if err := try(m); err != nil {
			return best, err
		}
	}
	return best, nil
}

// trial is the outcome of one micro-batch count.
type trial struct {
	m      int
	plans  []planner.MicroPlan
	time   float64
	err    error
	pruned bool
	bound  float64 // the bound that exceeded the incumbent, when pruned
}

func (tr trial) summary() TrialSummary {
	ts := TrialSummary{M: tr.m}
	switch {
	case tr.err != nil:
		ts.Note = tr.err.Error()
	case tr.pruned:
		ts.Pruned, ts.Bound = true, tr.bound
	default:
		ts.Feasible, ts.Time = true, tr.time
	}
	return ts
}

// runTrial blasts the batch into m micro-batches and answers them from src:
// first every exact repeat src holds, then the rest largest lower bound
// first. Before answering each of those the trial is abandoned if its
// overhead, its answered micro-batches and the bounds of the unanswered
// ones exceed the incumbent, so an abandoned trial's remaining micro-batches
// are neither looked up nor planned. A complete trial's time is summed in
// micro-batch order.
func (s *Solver) runTrial(ctx context.Context, batch []int, m int, incumbent float64, lb *planner.LowerBound, src *solveSource) trial {
	tr := trial{m: m}
	if tr.err = ctx.Err(); tr.err != nil {
		return tr
	}
	ctx, span := obs.Start(ctx, "solver.trial")
	defer span.End()
	span.SetAttr("m", m)
	fail := func(err error) trial {
		span.SetError(err)
		tr.err = err
		return tr
	}
	if m > len(batch) {
		return fail(fmt.Errorf("solver: m %d exceeds batch size", m))
	}
	var micro [][]int
	var err error
	if s.Sort {
		micro, err = blaster.Blast(batch, m)
	} else {
		micro, err = blaster.BlastUnsorted(batch, m)
	}
	if err != nil {
		return fail(err)
	}
	type pending struct {
		i     int
		bound float64
	}
	plans := make([]planner.MicroPlan, len(micro))
	var todo []pending
	answered, rest := s.Overhead*float64(len(micro)), 0.0
	for i, lens := range micro {
		if p, ok := src.repeat(ctx, lens); ok {
			plans[i] = p
			answered += p.Time
			continue
		}
		u := pending{i: i, bound: lb.Of(lens)}
		todo = append(todo, u)
		rest += u.bound
	}
	sort.SliceStable(todo, func(a, b int) bool { return todo[a].bound > todo[b].bound })
	limit := incumbent * (1 + pruneMargin)
	for _, u := range todo {
		// An infinite bound means no group holds the micro-batch's longest
		// sequence; planning it fails at once and says why.
		if bound := answered + rest; bound > limit && !math.IsInf(bound, 1) {
			span.SetAttr("pruned", true)
			span.SetAttr("bound", bound)
			tr.pruned, tr.bound = true, bound
			return tr
		}
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		p, err := src.answer(ctx, micro[u.i])
		if err != nil {
			return fail(err)
		}
		plans[u.i] = p
		answered += p.Time
		rest -= u.bound
	}
	tr.plans, tr.time = plans, s.Overhead*float64(len(plans))
	for _, p := range plans {
		tr.time += p.Time
	}
	span.SetAttr("est_time", tr.time)
	return tr
}

// solveSource answers a solve's micro-batches: exact repeats of
// micro-batches planned earlier in this solve first, then the plan cache
// (the held writes, when the solve holds them, before the shared cache),
// and the planner for the rest.
type solveSource struct {
	s    *Solver
	pr   costmodel.Pricing
	held *heldWrites
	memo map[uint64]repeatEntry // planned this solve, by exact signature
}

// repeatEntry is one micro-batch planned earlier in a solve.
type repeatEntry struct {
	sig  []int32
	plan planner.MicroPlan
}

func (src *solveSource) repeat(ctx context.Context, lens []int) (planner.MicroPlan, bool) {
	if len(src.memo) == 0 {
		return planner.MicroPlan{}, false
	}
	s := src.s
	sig, key := Signature(lens)
	e, ok := src.memo[key]
	if !ok || !SigsEqual(e.sig, sig) {
		return planner.MicroPlan{}, false
	}
	s.stats.deduped.Add(1)
	if s.Cache != nil {
		s.Cache.noteDedup()
	}
	src.span(ctx, lens, "dedup")
	return e.plan, true
}

func (src *solveSource) answer(ctx context.Context, lens []int) (planner.MicroPlan, error) {
	s := src.s
	if s.Cache != nil {
		if p, ok := src.cached(lens); ok {
			src.span(ctx, lens, "cache-hit")
			return p, nil
		}
	}
	ctx, span := obs.Start(ctx, "solver.micro")
	defer span.End()
	span.SetAttr("seqs", len(lens))
	span.SetAttr("tier", "planned")
	s.stats.planned.Add(1)
	p, err := s.Planner.PlanContext(ctx, lens)
	if err != nil {
		return p, err
	}
	if s.Cache != nil {
		if src.held != nil {
			src.held.put(lens, p)
		} else {
			s.Cache.Put(lens, p)
		}
	}
	sig, key := Signature(lens)
	src.memo[key] = repeatEntry{sig: sig, plan: p}
	return p, nil
}

// cached looks the micro-batch up in the held writes, then in the shared
// plan cache.
func (src *solveSource) cached(lens []int) (planner.MicroPlan, bool) {
	if src.held != nil {
		if p, ok := src.held.cache.Get(src.pr, lens); ok {
			return p, true
		}
	}
	return src.s.Cache.Get(src.pr, lens)
}

// span records a micro-batch answered without planning.
func (src *solveSource) span(ctx context.Context, lens []int, tier string) {
	_, span := obs.Start(ctx, "solver.micro")
	span.SetAttr("seqs", len(lens))
	span.SetAttr("tier", tier)
	span.End()
}
