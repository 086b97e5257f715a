// Package solver implements the overall FlexSP solver workflow (paper
// Alg. 1): given a global data batch, it derives the minimum feasible
// micro-batch count M_min, explores M ∈ [M_min, M_min+M′), blasts the batch
// into micro-batches for each M (internal/blaster), plans each micro-batch with
// the parallelism planner (internal/planner), and returns the plan sequence
// with the smallest total estimated time.
//
// Like the paper's implementation it is two-level parallel — micro-batch
// counts and micro-batches are solved concurrently, on a worker pool bounded
// by the machine's parallelism — and the Service type disaggregates solving
// from execution (§5): plans for future batches are computed in the
// background and handed to the executor in order. Identical micro-batch
// signatures in flight at once (adjacent M trials frequently blast out the
// same bucketed batch) are planned once and shared.
package solver

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flexsp/internal/blaster"
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
	// Parallel enables the two-level multi-process solving of Alg. 1
	// (a bounded goroutine pool here).
	Parallel bool
	// Workers bounds the planning worker pool when Parallel is set; zero
	// means GOMAXPROCS.
	Workers int
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
	skipped  atomic.Int64
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
	// Planned is the number of micro-batches that reached the planner (a
	// cache hit or an in-flight dedup avoids one planner invocation).
	Planned int64 `json:"planned"`
	// Deduped is the number of micro-batches served by waiting on another
	// in-flight plan of the same signature instead of planning.
	Deduped int64 `json:"deduped"`
	// Skipped is the number of speculative solves a streaming session
	// avoided because the plan cache already covered the partial batch
	// (see Solver.CacheCovers).
	Skipped int64 `json:"skipped"`
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
			Skipped:  s.stats.skipped.Load(),
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
	return &Solver{Planner: pl, Trials: blaster.DefaultTrials, Sort: true, Parallel: true}
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
	// Time is the trial's total estimated time (0 when infeasible).
	Time float64 `json:"time"`
	// Feasible reports whether every micro-batch found a plan.
	Feasible bool `json:"feasible"`
	// Note carries the failure reason for infeasible trials.
	Note string `json:"note,omitempty"`
}

// ErrUnsolvable is returned when no explored micro-batch count yields a
// feasible plan.
var ErrUnsolvable = fmt.Errorf("solver: no feasible plan for batch")

// planPool is the bounded worker pool planning micro-batches: a fixed set of
// workers drains a task channel, replacing the historical trials×micros
// goroutine fan-out. A nil pool runs tasks inline (the Parallel=false path).
type planPool struct {
	tasks chan func()
	wg    sync.WaitGroup
}

func newPlanPool(workers int) *planPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &planPool{tasks: make(chan func(), 2*workers)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for f := range p.tasks {
				f()
			}
		}()
	}
	return p
}

// do submits n tasks and waits for all of them. Task functions must not
// submit further tasks (the trial goroutines, not pool workers, fan out).
func (p *planPool) do(n int, task func(i int)) {
	if p == nil {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		p.tasks <- func() {
			defer wg.Done()
			task(i)
		}
	}
	wg.Wait()
}

func (p *planPool) close() {
	if p != nil {
		close(p.tasks)
		p.wg.Wait()
	}
}

// flightGroup deduplicates concurrent plans of identical micro-batch
// signatures (singleflight): when trials for M and M+1 blast out the same
// bucketed batch at once, one leader plans it and the others wait and reuse.
type flightGroup struct {
	mu sync.Mutex
	m  map[uint64]*flight
}

type flight struct {
	done chan struct{}
	sig  []int32 // sorted signature the leader is planning (collision guard)
	plan planner.MicroPlan
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[uint64]*flight)}
}

// start registers a flight for key. The second return is true when the
// caller became the leader and must call finish; false means another plan of
// the same signature is in progress and f.done can be awaited.
func (fg *flightGroup) start(key uint64, sig []int32) (*flight, bool) {
	fg.mu.Lock()
	defer fg.mu.Unlock()
	if f, ok := fg.m[key]; ok && SigsEqual(f.sig, sig) {
		return f, false
	}
	f := &flight{done: make(chan struct{}), sig: sig}
	fg.m[key] = f
	return f, true
}

func (fg *flightGroup) finish(key uint64, f *flight, plan planner.MicroPlan, err error) {
	fg.mu.Lock()
	if fg.m[key] == f {
		delete(fg.m, key)
	}
	fg.mu.Unlock()
	f.plan, f.err = plan, err
	close(f.done)
}

// Solve runs Alg. 1 on one data batch of sequence lengths.
func (s *Solver) Solve(batch []int) (Result, error) {
	return s.SolveContext(context.Background(), batch)
}

// SolveContext is Solve with cancellation: the context is checked at every
// trial and micro-batch boundary, so a canceled request (an HTTP client gone
// away, a draining server) stops consuming planner workers within one
// micro-batch plan. A canceled call returns ctx.Err(), never ErrUnsolvable.
func (s *Solver) SolveContext(ctx context.Context, batch []int) (Result, error) {
	return s.solve(ctx, batch, nil)
}

// solve is the Alg. 1 body behind SolveContext and SolveWarm. A non-nil warm
// state threads a streaming session's exact-signature micro-plan memo
// through planOne (see stream.go); nil is the plain cold path.
func (s *Solver) solve(ctx context.Context, batch []int, warm *warmState) (Result, error) {
	start := time.Now()
	ctx, span := obs.Start(ctx, "solver.solve")
	defer span.End()
	span.SetAttr("seqs", len(batch))
	trials := s.Trials
	if trials <= 0 {
		trials = blaster.DefaultTrials
	}
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

	var pool *planPool
	if s.Parallel {
		pool = newPlanPool(s.Workers)
		defer pool.close()
	}
	flights := newFlightGroup()

	type trial struct {
		plans []planner.MicroPlan
		time  float64
		m     int
		err   error
	}
	runTrial := func(m int) trial {
		if err := ctx.Err(); err != nil {
			return trial{err: err}
		}
		tctx, tspan := obs.Start(ctx, "solver.trial")
		defer tspan.End()
		tspan.SetAttr("m", m)
		if m > len(batch) {
			err := fmt.Errorf("solver: m %d exceeds batch size", m)
			tspan.SetError(err)
			return trial{err: err}
		}
		var micro [][]int
		var err error
		if s.Sort {
			micro, err = blaster.Blast(batch, m)
		} else {
			micro, err = blaster.BlastUnsorted(batch, m)
		}
		if err != nil {
			tspan.SetError(err)
			return trial{err: err}
		}
		plans := make([]planner.MicroPlan, len(micro))
		errs := make([]error, len(micro))
		pool.do(len(micro), func(i int) {
			if errs[i] = ctx.Err(); errs[i] != nil {
				return
			}
			plans[i], errs[i] = s.planOne(tctx, flights, micro[i], warm)
		})
		total := s.Overhead * float64(len(plans))
		for i := range plans {
			if errs[i] != nil {
				tspan.SetError(errs[i])
				return trial{err: errs[i]}
			}
			total += plans[i].Time
		}
		tspan.SetAttr("est_time", total)
		return trial{plans: plans, time: total, m: m}
	}

	trialsOut := make([]trial, trials)
	if s.Parallel {
		var wg sync.WaitGroup
		for ti := 0; ti < trials; ti++ {
			wg.Add(1)
			go func(ti int) {
				defer wg.Done()
				trialsOut[ti] = runTrial(mmin + ti)
			}(ti)
		}
		wg.Wait()
	} else {
		for ti := 0; ti < trials; ti++ {
			trialsOut[ti] = runTrial(mmin + ti)
		}
	}

	best := Result{Time: math.Inf(1), MMin: mmin}
	summarize := func(tr trial, m int) {
		ts := TrialSummary{M: m, Feasible: tr.err == nil, Time: tr.time}
		if tr.err != nil {
			ts.Time = 0
			ts.Note = tr.err.Error()
		}
		best.Trials = append(best.Trials, ts)
	}
	for ti, tr := range trialsOut {
		summarize(tr, mmin+ti)
		if tr.err != nil {
			continue
		}
		if tr.time < best.Time {
			best.Plans, best.Time, best.M = tr.plans, tr.time, tr.m
		}
	}
	if math.IsInf(best.Time, 1) {
		// Every trial in [M_min, M_min+M′) was infeasible — typically when
		// a conservative bucketing inflates memory estimates. Widen the
		// window geometrically rather than fail, going through the same
		// runTrial path as the window (same sorting ablation, plan cache,
		// and parallel planning).
		for m := mmin + trials; m <= len(batch); m += trials {
			tr := runTrial(m)
			summarize(tr, m)
			if tr.err != nil {
				continue
			}
			best.Plans, best.Time, best.M = tr.plans, tr.time, tr.m
			break
		}
	}
	if err := ctx.Err(); err != nil {
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

// planOne plans one micro-batch through the warm store, the cache and the
// in-flight deduplication: a streaming session's warm store returns memoized
// plans verbatim, cache hits return retargeted plans, concurrent identical
// signatures are planned once (singleflight, so the trials for M and M+1
// never plan the same bucketed batch twice), and everything else goes to
// the planner. Every successful outcome is recorded back into a non-nil
// warm state, and speculative solves withhold their plans from the shared
// cache (see stream.go for why both matter for byte-identity).
func (s *Solver) planOne(ctx context.Context, flights *flightGroup, lens []int, warm *warmState) (planner.MicroPlan, error) {
	ctx, span := obs.Start(ctx, "solver.micro")
	defer span.End()
	span.SetAttr("seqs", len(lens))
	var wsig []int32
	var wkey uint64
	if warm != nil {
		wsig, wkey = Signature(lens)
		if p, ok := warm.hit(wsig, wkey); ok {
			// The memoized plan is exactly what this solve's cold path
			// produced for this signature; a final (non-speculative) solve
			// also publishes it, so the cache ends up in the cold state.
			if s.Cache != nil && !warm.speculative {
				s.Cache.Put(lens, p)
			}
			span.SetAttr("tier", "warm")
			return p, nil
		}
	}
	record := func(p planner.MicroPlan, err error) (planner.MicroPlan, error) {
		if warm != nil && err == nil {
			warm.record(wsig, wkey, p)
		}
		return p, err
	}
	if s.Cache != nil {
		sig, key := s.Cache.signature(lens)
		if p, ok := s.Cache.getWithSig(s.Planner.Pricing(), lens, sig, key); ok {
			span.SetAttr("tier", "cache-hit")
			return record(p, nil)
		}
		// Singleflight on the cache's rounded signature: the leader plans
		// and fills the cache, waiters re-read it and retarget.
		f, leader := flights.start(key, sig)
		if !leader {
			<-f.done
			if p, ok := s.Cache.getWithSig(s.Planner.Pricing(), lens, sig, key); ok {
				s.Cache.noteDedup()
				s.stats.deduped.Add(1)
				span.SetAttr("tier", "dedup")
				return record(p, nil)
			}
			// Leader failed (or withheld its plan speculatively) or the
			// retarget was rejected; plan independently.
			s.stats.planned.Add(1)
			span.SetAttr("tier", "planned")
			return record(s.Planner.PlanContext(ctx, lens))
		}
		s.stats.planned.Add(1)
		span.SetAttr("tier", "planned")
		p, err := s.Planner.PlanContext(ctx, lens)
		if err == nil && (warm == nil || !warm.speculative) {
			s.Cache.Put(lens, p)
		}
		flights.finish(key, f, p, err)
		return record(p, err)
	}
	// No cache: deduplicate exact length multisets in flight and share the
	// identical plan.
	sig, key := Signature(lens)
	f, leader := flights.start(key, sig)
	if !leader {
		<-f.done
		if f.err == nil {
			s.stats.deduped.Add(1)
			span.SetAttr("tier", "dedup")
			return record(f.plan, nil)
		}
		s.stats.planned.Add(1)
		span.SetAttr("tier", "planned")
		return record(s.Planner.PlanContext(ctx, lens))
	}
	s.stats.planned.Add(1)
	span.SetAttr("tier", "planned")
	p, err := s.Planner.PlanContext(ctx, lens)
	flights.finish(key, f, p, err)
	return record(p, err)
}
