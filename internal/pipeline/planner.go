package pipeline

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"flexsp/internal/blaster"
	"flexsp/internal/costmodel"
	"flexsp/internal/obs"
	"flexsp/internal/planner"
)

// Planner jointly chooses the pipeline-parallel degree and the per-stage
// flexible-SP plans: for every candidate PP it carves the cluster, runs the
// FlexSP solver workflow (Alg. 1's micro-batch-count search + per-micro-batch
// planning) within each stage's sub-cluster, simulates the 1F1B schedule,
// and keeps the PP degree minimizing simulated iteration time. PP = 1 is the
// flat FlexSP system; with the default sweep (which includes 1) the joint
// plan matches or beats flat by construction. Setting Degrees without 1 —
// e.g. to pin a pipeline depth — deliberately forgoes that guarantee.
type Planner struct {
	// Base is the flat cost model the pipelines derive from; on a
	// heterogeneous fleet (NewHeteroPlanner) its bottleneck view.
	Base costmodel.Coeffs
	// Degrees are the candidate PP degrees (default 1, 2, 4, 8); degrees
	// that do not divide the cluster or exceed the layer count are skipped.
	Degrees []int
	// Trials is Alg. 1's M′ per PP degree (default blaster.DefaultTrials).
	Trials int
	// Strategy selects the per-stage planning algorithm.
	Strategy planner.Strategy
	// IncludeZeRO charges exposed per-stage ZeRO time in the simulated
	// schedules (and therefore in the PP comparison).
	IncludeZeRO bool

	// newPipe builds the candidate pipeline for a PP degree and micro-batch
	// count: New over Base, or NewHetero over the mixed fleet.
	newPipe func(pp, m int) (Pipeline, error)
}

// DefaultDegrees is the PP sweep of the joint planner.
var DefaultDegrees = []int{1, 2, 4, 8}

// NewPlanner returns a joint planner with the default sweep.
func NewPlanner(base costmodel.Coeffs) *Planner {
	return newPlanner(base, func(pp, m int) (Pipeline, error) { return New(base, pp, m) })
}

// NewHeteroPlanner returns a joint planner over a heterogeneous fleet: stage
// ranges keep their device classes and layer splits follow per-stage
// compute rates (NewHetero).
func NewHeteroPlanner(h costmodel.HeteroCoeffs) *Planner {
	return newPlanner(h.Bottleneck(), func(pp, m int) (Pipeline, error) { return NewHetero(h, pp, m) })
}

func newPlanner(base costmodel.Coeffs, newPipe func(pp, m int) (Pipeline, error)) *Planner {
	return &Planner{Base: base, Degrees: DefaultDegrees, Trials: blaster.DefaultTrials, newPipe: newPipe}
}

// Candidate summarizes one swept PP degree.
type Candidate struct {
	PP int
	// M is the chosen micro-batch count (0 when infeasible).
	M int
	// Time is the best simulated iteration seconds at this degree.
	Time float64
	// BubbleFrac is the pipeline bubble share of the best schedule.
	BubbleFrac float64
	// PeakMemFrac is the best schedule's peak device-memory fraction.
	PeakMemFrac float64
	// Feasible reports whether any micro-batch count produced a valid plan.
	Feasible bool
	// Note explains infeasibility.
	Note string
}

// Result is the joint plan.
type Result struct {
	// Pipe is the chosen pipeline (PP = 1 means flat FlexSP).
	Pipe Pipeline
	// Plans holds the chosen per-stage plans: Plans[j][s] is micro-batch
	// j's flexible-SP plan on stage s.
	Plans [][]planner.MicroPlan
	// Time is the simulated iteration seconds of the chosen pipeline.
	Time float64
	// Sched is the simulated 1F1B schedule of the chosen pipeline.
	Sched ScheduleResult
	// Candidates lists every swept PP degree, ascending.
	Candidates []Candidate
	// SolveWall is the planning wall-clock time.
	SolveWall time.Duration
}

// ErrUnsolvable is returned when no swept PP degree yields a feasible plan.
var ErrUnsolvable = fmt.Errorf("pipeline: no feasible joint PP×SP plan for batch")

// Solve runs the joint PP×SP search on one data batch of sequence lengths.
func (jp *Planner) Solve(batch []int) (Result, error) {
	return jp.SolveContext(context.Background(), batch)
}

// SolveContext is Solve with cancellation: the context is checked at every
// PP-degree, micro-batch-count, and micro-batch-plan boundary, so a canceled
// request (an HTTP client gone away, a draining server) stops consuming
// planner workers within one micro-batch plan. A canceled call returns
// ctx.Err(), never ErrUnsolvable.
func (jp *Planner) SolveContext(ctx context.Context, batch []int) (Result, error) {
	start := time.Now()
	ctx, span := obs.Start(ctx, "pipeline.solve")
	defer span.End()
	span.SetAttr("seqs", len(batch))
	degrees := jp.Degrees
	if len(degrees) == 0 {
		degrees = DefaultDegrees
	}
	n := jp.Base.Topo.NumDevices()
	var sweep []int
	for _, pp := range degrees {
		if pp >= 1 && pp <= n && n%pp == 0 && pp <= jp.Base.Model.Layers {
			sweep = append(sweep, pp)
		}
	}
	if len(sweep) == 0 {
		return Result{}, fmt.Errorf("pipeline: no valid PP degree in %v for %d devices", degrees, n)
	}
	if len(batch) == 0 {
		// An empty batch has a trivial plan; return a valid (flat) pipeline
		// so the advertised Execute follow-up works.
		pipe, err := jp.newPipe(1, 1)
		if err != nil {
			return Result{}, err
		}
		return Result{Pipe: pipe, Candidates: []Candidate{{PP: 1, Feasible: true}},
			SolveWall: time.Since(start)}, nil
	}

	outs := make([]outcome, len(sweep))
	var wg sync.WaitGroup
	for i := range sweep {
		wg.Add(1)
		go func(i int) { defer wg.Done(); outs[i] = jp.solveDegree(ctx, batch, sweep[i]) }(i)
	}
	wg.Wait()

	res := Result{Time: math.Inf(1)}
	for _, o := range outs {
		res.Candidates = append(res.Candidates, o.cand)
		if o.cand.Feasible && o.cand.Time < res.Time {
			res.Pipe, res.Plans, res.Time, res.Sched = o.pipe, o.plans, o.cand.Time, o.sched
		}
	}
	if err := ctx.Err(); err != nil {
		span.SetError(err)
		return Result{}, err
	}
	if math.IsInf(res.Time, 1) {
		span.SetError(ErrUnsolvable)
		return Result{Candidates: res.Candidates}, ErrUnsolvable
	}
	res.SolveWall = time.Since(start)
	span.SetAttr("pp", res.Pipe.PP)
	span.SetAttr("est_time", res.Time)
	return res, nil
}

// outcome is one PP degree's search result.
type outcome struct {
	cand  Candidate
	pipe  Pipeline
	plans [][]planner.MicroPlan
	sched ScheduleResult
}

// solveDegree runs the micro-batch-count search at one PP degree.
func (jp *Planner) solveDegree(ctx context.Context, batch []int, pp int) (o outcome) {
	ctx, span := obs.Start(ctx, "pipeline.degree")
	defer span.End()
	span.SetAttr("pp", pp)
	defer func() {
		span.SetAttr("feasible", o.cand.Feasible)
		if o.cand.Feasible {
			span.SetAttr("m", o.cand.M)
			span.SetAttr("est_time", o.cand.Time)
		} else if o.cand.Note != "" {
			span.SetAttr("note", o.cand.Note)
		}
	}()
	o.cand = Candidate{PP: pp}

	// M_min: smallest m whose in-flight-aware stage capacity admits the
	// batch. Capacity shrinks as m grows (more micro-batches in flight)
	// until m reaches pp, so iterate to the fixpoint.
	mmin := 1
	for {
		pipe, err := jp.newPipe(pp, mmin)
		if err != nil {
			o.cand.Note = err.Error()
			return o
		}
		need := blaster.MinMicroBatches(batch, pipe.TokenCapacity())
		if need == 0 {
			o.cand.Note = "batch exceeds stage token capacity"
			return o
		}
		if need <= mmin || mmin >= len(batch) {
			break
		}
		mmin = need
	}

	trials := jp.Trials
	if trials <= 0 {
		trials = blaster.DefaultTrials
	}
	best := math.Inf(1)
	tryM := func(m int) bool {
		if ctx.Err() != nil {
			return false
		}
		pipe, plans, sched, err := jp.planM(ctx, batch, pp, m)
		if err != nil {
			if o.cand.Note == "" {
				o.cand.Note = err.Error()
			}
			return false
		}
		if sched.Time < best {
			best = sched.Time
			o.cand = Candidate{PP: pp, M: m, Time: sched.Time,
				BubbleFrac: sched.BubbleFrac, PeakMemFrac: sched.PeakMemFrac, Feasible: true}
			o.pipe, o.plans, o.sched = pipe, plans, sched
		}
		return true
	}
	for t := 0; t < trials; t++ {
		if m := mmin + t; m <= len(batch) {
			tryM(m)
		}
	}
	if !o.cand.Feasible {
		// Widen the window geometrically like the flat solver does when a
		// conservative capacity estimate blocks the first trials.
		for m := mmin + trials; m <= len(batch); m += trials {
			if tryM(m) {
				break
			}
		}
	}
	return o
}

// planM blasts the batch into m micro-batches and plans every (micro-batch,
// stage) cell, then simulates the schedule.
func (jp *Planner) planM(ctx context.Context, batch []int, pp, m int) (Pipeline, [][]planner.MicroPlan, ScheduleResult, error) {
	pipe, err := jp.newPipe(pp, m)
	if err != nil {
		return Pipeline{}, nil, ScheduleResult{}, err
	}
	micro, err := blaster.Blast(batch, m)
	if err != nil {
		return Pipeline{}, nil, ScheduleResult{}, err
	}

	plans := make([][]planner.MicroPlan, len(micro))
	errs := make([]error, len(micro))
	planOne := func(j int) {
		if errs[j] = ctx.Err(); errs[j] != nil {
			return
		}
		plans[j] = make([]planner.MicroPlan, pp)
		for s, st := range pipe.Stages {
			pl := planner.New(st.Coeffs)
			pl.Strategy = jp.Strategy
			plans[j][s], errs[j] = pl.Plan(micro[j])
			if errs[j] != nil {
				errs[j] = fmt.Errorf("pipeline: PP=%d stage %d micro %d: %w", pp, s, j, errs[j])
				return
			}
		}
	}
	var wg sync.WaitGroup
	for j := range micro {
		wg.Add(1)
		go func(j int) { defer wg.Done(); planOne(j) }(j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Pipeline{}, nil, ScheduleResult{}, err
		}
	}

	sched, err := pipe.Execute(plans, Options{IncludeZeRO: jp.IncludeZeRO})
	if err != nil {
		return Pipeline{}, nil, ScheduleResult{}, err
	}
	return pipe, plans, sched, nil
}
