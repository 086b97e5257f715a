package flexsp

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"flexsp/internal/baselines"
	"flexsp/internal/costmodel"
	"flexsp/internal/obs"
	"flexsp/internal/pipeline"
	"flexsp/internal/planner"
	"flexsp/internal/server"
	"flexsp/internal/sim"
	"flexsp/internal/solver"
)

// Named strategies of the built-in registry. Every strategy is reachable
// through the one System.Plan entry point, the CLIs' -system flags, and the
// daemon's POST /v2/plan strategy field.
const (
	// StrategyFlexSP is the paper's heterogeneous-SP solver (Alg. 1).
	StrategyFlexSP = "flexsp"
	// StrategyPipeline is the joint PP×SP planner (1F1B pipeline stages
	// with flexible SP inside each stage).
	StrategyPipeline = "pipeline"
	// StrategyDeepSpeed is the static homogeneous DeepSpeed baseline: one
	// SP degree for the whole run, fixed by the maximum context length.
	StrategyDeepSpeed = "deepspeed"
	// StrategyBatchAda is FlexSP-BatchAda: the best homogeneous SP degree
	// re-chosen per batch.
	StrategyBatchAda = "batchada"
	// StrategyMegatron is the Megatron-LM (TP×CP×PP) grid baseline. Its
	// plans are analytic: MicroPlans is empty and Execute returns the
	// cost-model result without a discrete-event replay.
	StrategyMegatron = "megatron"
	// StrategyRing is the FlexSP solver under ring-attention context
	// parallelism (flexible CP, paper Appendix E): the same Alg. 1 search,
	// costed with the ring communication style instead of Ulysses
	// all-to-all. Equivalent to building a whole System with
	// Config.CommStyle = StyleRingCP, but dispatched per-plan so the two
	// styles can be compared on one System.
	StrategyRing = "ring"
)

// PlanOptions configures one System.Plan call.
type PlanOptions struct {
	// Strategy names the planning strategy (default StrategyFlexSP); see
	// Strategies for the registered names.
	Strategy string
	// MaxCtx is the maximum context length the static baselines
	// (deepspeed, megatron) size themselves for. Zero uses the longest
	// sequence of the batch — fine for one-shot planning, but a training
	// run should pass its true maximum so the static degree matches what
	// those systems would lock in up front.
	MaxCtx int
	// Seed drives the executor's noise jitter for this plan's Execute
	// (and nothing else; zero is deterministic).
	Seed int64
}

// ExecResult is the unified execution outcome of a Plan: the common subset
// of the flat executor's iteration result and the pipelined 1F1B schedule
// result, so callers can compare strategies without caring which substrate
// replayed the plan.
type ExecResult struct {
	// Time is the end-to-end iteration seconds.
	Time float64
	// AllToAll is the critical-path communication seconds (All-to-All for
	// the SP strategies; for megatron, the TP/CP/PP critical-path
	// communication of the analytic model).
	AllToAll float64
	// Comp is the critical-path compute seconds.
	Comp float64
	// P2P is the inter-stage transfer seconds (pipelined plans only).
	P2P float64
	// ZeRO is the exposed ZeRO-3 communication charged when the System has
	// IncludeZeRO set.
	ZeRO float64
	// GroupCreation is the one-time communicator-creation cost paid by this
	// execution (zero once the pool is warm — hot switching, §5).
	GroupCreation float64
	// PeakMemFrac is the maximum per-device memory fraction observed.
	PeakMemFrac float64
	// BubbleFrac is the pipeline bubble share (pipelined plans only).
	BubbleFrac float64
	// OOM is set when some group exceeded device memory; Time is then
	// meaningless.
	OOM bool
}

// AllToAllShare returns the fraction of iteration time spent in critical-
// path communication (the paper's Fig. 5a breakdown).
func (r ExecResult) AllToAllShare() float64 {
	if r.Time == 0 {
		return 0
	}
	return r.AllToAll / r.Time
}

// Plan is one strategy's parallelism plan for one data batch, produced by
// System.Plan. Every registered strategy — the FlexSP solver, the joint
// PP×SP planner, and the homogeneous baselines — yields the same interface,
// so callers dispatch by name instead of by method.
type Plan interface {
	// Strategy returns the registry name that produced this plan.
	Strategy() string
	// EstTime returns the planner's estimated iteration seconds.
	EstTime() float64
	// MicroPlans returns the executable micro-batch plans: the micro-batch
	// sequence for flat strategies, the per-stage plans flattened
	// micro-batch-major for the pipeline strategy, and nil for analytic
	// strategies (megatron).
	MicroPlans() []planner.MicroPlan
	// MicroBatches returns the chosen micro-batch count M (gradient-
	// accumulation rounds). For the pipeline strategy this is the number of
	// micro-batches, not the per-stage plan count MicroPlans returns.
	MicroBatches() int
	// Describe returns a short human-readable label of the chosen layout
	// (e.g. "⟨32,8×4⟩", "PP=2 ⟨16×4⟩", "TP=8 CP=2 PP=1").
	Describe() string
	// Explain returns the plan's provenance: the per-group cost-term
	// breakdown under the cost model and the alternatives the solver
	// rejected (micro-batch-count trials, swept PP degrees). Render it with
	// PlanExplain.Render or embed it in the wire envelope.
	Explain() *PlanExplain
	// Execute replays the plan on the simulated cluster, reusing the
	// system's communicator pool (hot switching).
	Execute(ctx context.Context) (ExecResult, error)
}

// PlanExplain is a plan's provenance attachment, shared with the daemon's
// wire protocol (the "explain" section of a v2 envelope).
type PlanExplain = server.ExplainJSON

// StrategyFunc plans one batch for a System under a named strategy; register
// implementations with RegisterStrategy.
type StrategyFunc func(ctx context.Context, sys *System, batch []int, opts PlanOptions) (Plan, error)

var (
	strategyMu    sync.RWMutex
	strategyFuncs = map[string]StrategyFunc{
		StrategyFlexSP:    planFlexSP,
		StrategyPipeline:  planPipeline,
		StrategyDeepSpeed: planDeepSpeed,
		StrategyBatchAda:  planBatchAda,
		StrategyMegatron:  planMegatron,
		StrategyRing:      planRing,
	}
)

// Strategies returns the registered strategy names, sorted.
func Strategies() []string {
	strategyMu.RLock()
	defer strategyMu.RUnlock()
	names := make([]string, 0, len(strategyFuncs))
	for name := range strategyFuncs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// RegisterStrategy adds (or replaces) a named strategy in the registry.
// Registered strategies are dispatched by System.Plan and, for servers built
// after registration, served by POST /v2/plan. Names are case-insensitive
// (stored lowercased) and must be non-empty; fn must be non-nil. The
// built-in flexsp and pipeline strategies cannot be replaced. The daemon
// plans flexsp itself, on its own solver, so an override would make that
// name dispatch differently in-process and over HTTP. Pipeline is the
// strategy Config.Pipeline configures and the one name the daemon reserves
// (answering 501 where it is absent), so it keeps one meaning everywhere.
func RegisterStrategy(name string, fn StrategyFunc) error {
	name = strings.ToLower(name)
	if name == "" {
		return fmt.Errorf("flexsp: empty strategy name")
	}
	if fn == nil {
		return fmt.Errorf("flexsp: nil StrategyFunc for strategy %q", name)
	}
	if name == StrategyFlexSP || name == StrategyPipeline {
		return fmt.Errorf("flexsp: strategy %q is built in and cannot be replaced", name)
	}
	strategyMu.Lock()
	defer strategyMu.Unlock()
	strategyFuncs[name] = fn
	return nil
}

// Plan runs the named strategy (default flexsp) on one data batch of
// sequence lengths and returns its plan, ready to Execute. Strategy names
// are case-insensitive. The context is threaded into the solver
// (solver.SolveContext / pipeline.SolveContext), so canceling it stops
// planning at the next trial or micro-batch boundary.
func (s *System) Plan(ctx context.Context, batch []int, opts PlanOptions) (Plan, error) {
	name := strings.ToLower(opts.Strategy)
	if name == "" {
		name = StrategyFlexSP
	}
	strategyMu.RLock()
	fn, ok := strategyFuncs[name]
	strategyMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("flexsp: unknown strategy %q (registered: %s)",
			name, strings.Join(Strategies(), ", "))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, span := obs.Start(ctx, "system.plan")
	defer span.End()
	span.SetAttr("strategy", name)
	span.SetAttr("seqs", len(batch))
	p, err := fn(ctx, s, batch, opts)
	if err != nil {
		span.SetError(err)
	} else {
		span.SetAttr("est_time", p.EstTime())
	}
	return p, err
}

// effectiveMaxCtx resolves the static baselines' context bound: the explicit
// option when set, the batch's longest sequence otherwise.
func effectiveMaxCtx(batch []int, opts PlanOptions) int {
	if opts.MaxCtx > 0 {
		return opts.MaxCtx
	}
	maxLen := 0
	for _, l := range batch {
		if l > maxLen {
			maxLen = l
		}
	}
	return maxLen
}

func planFlexSP(ctx context.Context, sys *System, batch []int, opts PlanOptions) (Plan, error) {
	res, err := sys.Solver.SolveContext(ctx, batch)
	if err != nil {
		return nil, err
	}
	return &flatPlan{sys: sys, name: StrategyFlexSP, res: res, seed: opts.Seed}, nil
}

func planRing(ctx context.Context, sys *System, batch []int, opts PlanOptions) (Plan, error) {
	sv := sys.ringSolver()
	res, err := sv.SolveContext(ctx, batch)
	if err != nil {
		return nil, err
	}
	return &flatPlan{sys: sys, name: StrategyRing, res: res, seed: opts.Seed, pl: sv.Planner}, nil
}

// ringSolver lazily builds the solver behind the ring strategy: the system's
// cost model (calibration hook included) re-styled to ring-attention CP, with
// the same planning strategy, trials, and ZeRO accounting as the main solver.
// A system already configured with StyleRingCP reuses its main solver — the
// two would be identical.
func (s *System) ringSolver() *solver.Solver {
	if s.cfg.CommStyle == costmodel.StyleRingCP {
		return s.Solver
	}
	s.ringOnce.Do(func() {
		s.ring = s.newSolver(s.Planner.WithStyle(costmodel.StyleRingCP))
	})
	return s.ring
}

func planPipeline(ctx context.Context, sys *System, batch []int, opts PlanOptions) (Plan, error) {
	res, err := sys.Joint.SolveContext(ctx, batch)
	if err != nil {
		return nil, err
	}
	return &pipePlan{sys: sys, res: res, seed: opts.Seed}, nil
}

func planDeepSpeed(ctx context.Context, sys *System, batch []int, opts PlanOptions) (Plan, error) {
	plans, err := baselines.DeepSpeed(sys.Coeffs, batch, effectiveMaxCtx(batch, opts))
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return newBaselinePlan(sys, StrategyDeepSpeed, plans, opts.Seed), nil
}

func planBatchAda(ctx context.Context, sys *System, batch []int, opts PlanOptions) (Plan, error) {
	plans, err := baselines.BatchAda(sys.Coeffs, batch)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return newBaselinePlan(sys, StrategyBatchAda, plans, opts.Seed), nil
}

func planMegatron(ctx context.Context, sys *System, batch []int, opts PlanOptions) (Plan, error) {
	res, err := baselines.Megatron(sys.Coeffs, batch, effectiveMaxCtx(batch, opts))
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &megatronPlan{res: res, cal: sys.calTag()}, nil
}

// newBaselinePlan wraps a homogeneous baseline's micro-plan sequence in the
// Plan interface, reusing the flat execution path.
func newBaselinePlan(sys *System, name string, plans []planner.MicroPlan, seed int64) Plan {
	var total float64
	for _, p := range plans {
		total += p.Time
	}
	return &flatPlan{
		sys:  sys,
		name: name,
		res:  solver.Result{Plans: plans, Time: total, M: len(plans), MMin: len(plans)},
		seed: seed,
	}
}

// flatPlan is a micro-batch plan sequence executed by the flat discrete-
// event executor: the flexsp strategy's solver result and the homogeneous
// baselines' plans.
type flatPlan struct {
	sys  *System
	name string
	res  solver.Result
	seed int64
	// pl, when non-nil, is the planner whose cost model produced (and
	// replays) this plan instead of the system default — the ring strategy's
	// re-styled profile.
	pl *planner.Planner
}

// planner resolves the cost model this plan is explained and executed under.
func (p *flatPlan) planner() *planner.Planner {
	if p.pl != nil {
		return p.pl
	}
	return p.sys.Planner
}

func (p *flatPlan) Strategy() string { return p.name }

func (p *flatPlan) EstTime() float64 { return p.res.Time }

func (p *flatPlan) MicroPlans() []planner.MicroPlan { return p.res.Plans }

func (p *flatPlan) MicroBatches() int { return len(p.res.Plans) }

func (p *flatPlan) Describe() string {
	if len(p.res.Plans) == 0 {
		return "⟨⟩"
	}
	return degreesString(p.res.Plans[0].Degrees())
}

func (p *flatPlan) Explain() *PlanExplain {
	e := server.ExplainFlat(p.planner(), p.res, p.name)
	e.Calibration = p.calibration()
	return e
}

func (p *flatPlan) calibration() string { return p.sys.calTag() }

func (p *flatPlan) Execute(ctx context.Context) (ExecResult, error) {
	if err := ctx.Err(); err != nil {
		return ExecResult{}, err
	}
	exec, err := p.sys.executeMicroWith(p.planner(), p.res.Plans, p.seed)
	if err != nil {
		return ExecResult{}, err
	}
	return execFromIter(exec), nil
}

// pipePlan is the joint PP×SP plan, executed by the 1F1B schedule simulator.
type pipePlan struct {
	sys  *System
	res  pipeline.Result
	seed int64
}

func (p *pipePlan) Strategy() string { return StrategyPipeline }

func (p *pipePlan) EstTime() float64 { return p.res.Time }

func (p *pipePlan) MicroPlans() []planner.MicroPlan {
	var out []planner.MicroPlan
	for _, stages := range p.res.Plans {
		out = append(out, stages...)
	}
	return out
}

func (p *pipePlan) MicroBatches() int { return len(p.res.Plans) }

func (p *pipePlan) Describe() string {
	label := fmt.Sprintf("PP=%d", p.res.Pipe.PP)
	if len(p.res.Plans) > 0 && len(p.res.Plans[0]) > 0 {
		label += " " + degreesString(p.res.Plans[0][0].Degrees())
	}
	return label
}

func (p *pipePlan) Explain() *PlanExplain {
	e := server.ExplainPipelined(p.sys.Planner, p.res)
	e.Calibration = p.calibration()
	return e
}

func (p *pipePlan) calibration() string { return p.sys.calTag() }

func (p *pipePlan) Execute(ctx context.Context) (ExecResult, error) {
	if err := ctx.Err(); err != nil {
		return ExecResult{}, err
	}
	sched, err := p.res.Pipe.Execute(p.res.Plans, pipeline.Options{
		IncludeZeRO: p.sys.includeZeRO,
		Pool:        p.sys.pool,
		Seed:        p.seed,
	})
	if err != nil {
		return ExecResult{}, err
	}
	return execFromSched(sched), nil
}

// megatronPlan is the analytic Megatron-LM grid result: no micro-plans to
// replay, Execute returns the cost-model outcome directly.
type megatronPlan struct {
	res baselines.MegatronResult
	// cal is the producing system's calibration tag (analytic plans still
	// record which cost model priced them).
	cal string
}

func (p *megatronPlan) calibration() string { return p.cal }

func (p *megatronPlan) Strategy() string { return StrategyMegatron }

func (p *megatronPlan) EstTime() float64 { return p.res.Time }

func (p *megatronPlan) MicroPlans() []planner.MicroPlan { return nil }

func (p *megatronPlan) MicroBatches() int { return p.res.Rounds }

func (p *megatronPlan) Describe() string {
	s := p.res.Strategy
	return fmt.Sprintf("TP=%d CP=%d PP=%d", s.TP, s.CP, s.PP)
}

func (p *megatronPlan) Explain() *PlanExplain {
	s := p.res.Strategy
	e := server.ExplainMegatron(server.MegatronJSON{
		TP:        s.TP,
		CP:        s.CP,
		PP:        s.PP,
		Recompute: p.res.Recompute.String(),
		Time:      p.res.Time,
		Comm:      p.res.Comm,
		Rounds:    p.res.Rounds,
	})
	e.Calibration = p.cal
	return e
}

func (p *megatronPlan) Execute(ctx context.Context) (ExecResult, error) {
	if err := ctx.Err(); err != nil {
		return ExecResult{}, err
	}
	return ExecResult{
		Time:     p.res.Time,
		AllToAll: p.res.Comm,
		Comp:     p.res.Time - p.res.Comm,
	}, nil
}

// execFromIter projects the flat executor's iteration result onto the
// unified ExecResult.
func execFromIter(r sim.IterResult) ExecResult {
	return ExecResult{
		Time:          r.Time,
		AllToAll:      r.AllToAll,
		Comp:          r.Comp,
		ZeRO:          r.ZeRO,
		GroupCreation: r.GroupCreation,
		PeakMemFrac:   r.PeakMemFrac,
		OOM:           r.OOM,
	}
}

// execFromSched projects a 1F1B schedule result onto the unified ExecResult.
func execFromSched(r pipeline.ScheduleResult) ExecResult {
	return ExecResult{
		Time:          r.Time,
		AllToAll:      r.AllToAll,
		Comp:          r.Comp,
		P2P:           r.P2P,
		ZeRO:          r.ZeRO,
		GroupCreation: r.GroupCreation,
		PeakMemFrac:   r.PeakMemFrac,
		BubbleFrac:    r.BubbleFrac,
		OOM:           r.OOM,
	}
}

// EncodePlan converts a Plan to the tagged v2 wire envelope served by POST
// /v2/plan: the flat section for micro-batch plan sequences, the pipelined
// section for joint PP×SP plans, the megatron section for the analytic
// baseline. wall is the planning wall-clock the envelope reports.
func EncodePlan(p Plan, wall time.Duration) server.PlanEnvelope {
	env := server.PlanEnvelope{
		Version:          server.WireVersion,
		Strategy:         p.Strategy(),
		EstTime:          p.EstTime(),
		SolveWallSeconds: wall.Seconds(),
	}
	// Plans priced by a calibrated cost model say so on the wire; the tag is
	// omitted (not an empty field) under the analytic defaults, keeping
	// uncalibrated envelopes byte-identical to earlier versions.
	if c, ok := p.(interface{ calibration() string }); ok {
		env.Calibration = c.calibration()
	}
	switch p := p.(type) {
	case *pipePlan:
		pr := server.EncodePipelined(p.res)
		env.Pipelined = &pr
	case *megatronPlan:
		s := p.res.Strategy
		env.Megatron = &server.MegatronJSON{
			TP:        s.TP,
			CP:        s.CP,
			PP:        s.PP,
			Recompute: p.res.Recompute.String(),
			Time:      p.res.Time,
			Comm:      p.res.Comm,
			Rounds:    p.res.Rounds,
		}
	case *flatPlan:
		sr := server.EncodeResult(p.res)
		env.Flat = &sr
	default:
		// A custom registered strategy: encode its micro-plans as a flat
		// section.
		plans := p.MicroPlans()
		sr := server.SolveResponse{M: len(plans), EstTime: p.EstTime(), Micro: server.EncodePlans(plans)}
		env.Flat = &sr
	}
	return env
}

// degreesString renders a degree sequence compactly: ⟨32,8×4⟩ is one
// 32-wide group followed by four 8-wide groups.
func degreesString(degrees []int) string {
	var parts []string
	i := 0
	for i < len(degrees) {
		j := i
		for j < len(degrees) && degrees[j] == degrees[i] {
			j++
		}
		if j-i > 1 {
			parts = append(parts, fmt.Sprintf("%d×%d", degrees[i], j-i))
		} else {
			parts = append(parts, strconv.Itoa(degrees[i]))
		}
		i = j
	}
	return "⟨" + strings.Join(parts, ",") + "⟩"
}
