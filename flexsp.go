// Package flexsp is the public facade of the FlexSP reproduction: a
// heterogeneity-adaptive sequence-parallelism planner and simulated training
// system for large language models over varied-length corpora, after
// "FlexSP: Accelerating Large Language Model Training via Flexible Sequence
// Parallelism" (Wang et al., ASPLOS 2025).
//
// A System ties together the cluster topology, the profiled cost model, the
// Alg. 1 solver and the discrete-event executor behind one context-first
// entry point. Every planning strategy — the FlexSP solver, the joint PP×SP
// pipeline planner, and the homogeneous baselines — is a named entry in one
// registry, dispatched by System.Plan:
//
//	sys, _ := flexsp.NewSystem(flexsp.Config{Devices: 64, Model: flexsp.GPT7B})
//	batch := flexsp.CommonCrawl().Batch(rng, 512, 192<<10)
//	plan, _ := sys.Plan(ctx, batch, flexsp.PlanOptions{})       // default: flexsp
//	exec, _ := plan.Execute(ctx)
//	fmt.Println(exec.Time, exec.AllToAllShare())
//
// The packages under internal/ hold the substrates: cluster topology
// (internal/cluster), α-β cost model (internal/costmodel), long-tail
// workloads (internal/workload), packing/bucketing/chunking
// (internal/packing, internal/bucket, internal/blaster), the MILP solver
// (internal/milp), the planner (internal/planner), homogeneous baselines
// (internal/baselines), the executor (internal/sim), the hybrid pipeline ×
// flexible-SP subsystem (internal/pipeline), and the collective
// runtime plus tiny transformer used for numerical verification
// (internal/comm, internal/tensor, internal/model).
package flexsp

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"flexsp/internal/calib"
	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/pipeline"
	"flexsp/internal/planner"
	"flexsp/internal/server"
	"flexsp/internal/sim"
	"flexsp/internal/solver"
	"flexsp/internal/workload"
)

// Re-exported model configurations (paper Table 5).
var (
	GPT7B  = costmodel.GPT7B
	GPT13B = costmodel.GPT13B
	GPT30B = costmodel.GPT30B
)

// Re-exported dataset constructors (paper Fig. 2).
var (
	GitHub      = workload.GitHub
	CommonCrawl = workload.CommonCrawl
	Wikipedia   = workload.Wikipedia
)

// Config configures a System. The zero value is valid: 64 A100-40G GPUs,
// GPT-7B, the enumerative planner.
type Config struct {
	// Devices is the GPU count (multiple of 8, or < 8 for one node; 0
	// defaults to 64). Ignored when Cluster is set.
	Devices int
	// Cluster optionally selects the fleet by spec instead of Devices:
	// "mixed:32xA100,32xH100" builds a heterogeneous cluster (device counts
	// per class; classes A100, A100-80G, H100), and a single-class spec like
	// "64xH100" builds a homogeneous non-A100 fleet. Empty uses Devices
	// A100-40G GPUs. Invalid specs make NewSystem return an error.
	Cluster string
	// Model selects the transformer configuration (default GPT7B).
	Model costmodel.ModelConfig
	// Planner selects the per-micro-batch planning algorithm (default
	// enumerative; also milp, greedy). This is orthogonal to
	// PlanOptions.Strategy, which names the system-level strategy
	// (flexsp, pipeline, a baseline).
	Planner planner.Strategy
	// CommStyle selects Ulysses all-to-all SP (default) or ring-attention
	// context parallelism (flexible CP, paper Appendix E).
	CommStyle costmodel.CommStyle
	// Calibration optionally names a fitted coefficient file (produced by
	// flexsp-profile fit) whose per-(model, device-class) tables overlay the
	// analytic α-β profile. Empty — the default — keeps the built-in
	// coefficients byte-for-byte: calibration is strictly opt-in. A path
	// that does not load or validate makes NewSystem return an error.
	Calibration string
	// Trials is Alg. 1's M′ (default 5).
	Trials int
	// IncludeZeRO charges exposed ZeRO-3 communication during execution.
	IncludeZeRO bool
	// Pipeline configures the hybrid PP×SP planner behind the pipeline
	// strategy. The zero value uses the default PP sweep with no SP-degree
	// cap.
	Pipeline PipelineConfig
	// Serve configures the HTTP planning daemon reached through NewServer.
	// The zero value uses the server defaults.
	Serve ServeConfig
}

// Validate reports whether the configuration can build a System: the fleet
// spec must parse, the device count must be valid, and numeric knobs must be
// non-negative. NewSystem validates implicitly; CLIs can call this early for
// a friendly flag error.
func (c Config) Validate() error {
	if c.Cluster != "" {
		if _, err := cluster.ParseClusterSpec(c.Cluster); err != nil {
			return fmt.Errorf("flexsp: invalid Cluster %q: %w", c.Cluster, err)
		}
	} else if c.Devices != 0 {
		if _, err := cluster.NewA100Cluster(c.Devices); err != nil {
			return fmt.Errorf("flexsp: invalid Devices %d: %w", c.Devices, err)
		}
	}
	if c.Trials < 0 {
		return fmt.Errorf("flexsp: negative Trials %d", c.Trials)
	}
	for _, d := range c.Pipeline.Degrees {
		if d < 1 {
			return fmt.Errorf("flexsp: invalid pipeline degree %d", d)
		}
	}
	return nil
}

// ServeConfig configures the solver-as-a-service daemon (paper §5) built by
// System.NewServer: admission control, the request-batching window, and the
// shared plan cache. Zero fields take the server/cache defaults.
type ServeConfig struct {
	// QueueLimit bounds admitted requests (default 64); overflow gets 429.
	QueueLimit int
	// TenantLimit bounds concurrent requests per tenant label (default 16).
	TenantLimit int
	// BatchWindow is how long the first request for a batch signature waits
	// for identical requests to coalesce with before solving (default 2ms;
	// negative disables the wait and, in effect, coalescing: a request
	// arriving while an identical one solves opens its own pass).
	BatchWindow time.Duration
	// CacheEntries and CacheGranularity size the shared plan cache the
	// server attaches when the system's solver has none yet (defaults 1024
	// entries, 256-token rounding); a cache already on the solver is kept
	// as-is.
	CacheEntries, CacheGranularity int
	// TraceEntries bounds the ring of completed request traces behind the
	// daemon's GET /v2/trace/{id} (0 = default 64; negative disables
	// per-request tracing).
	TraceEntries int
	// StreamLimit bounds concurrently open streaming sessions (default 64);
	// overflow opens get 429.
	StreamLimit int
	// StreamTimeout reaps streaming sessions idle for this long (default
	// 60s; negative disables the idle timeout).
	StreamTimeout time.Duration
	// Elastic turns on live-topology planning: the daemon accepts
	// POST /v2/topology events (node loss, stragglers, rejoin) against the
	// system's elastic topology and replans in the background by rebuilding
	// its solver and strategies for the live fleet, after which it plans as
	// a daemon booted on that fleet would. Plans served between an event and
	// the replan carry "degraded": true.
	Elastic bool
	// ReplanDebounce is how long the replan loop waits after a topology
	// event for the burst to settle before replanning (default 100ms;
	// negative replans immediately).
	ReplanDebounce time.Duration
	// Logger receives the daemon's structured logs (requests at Debug,
	// lifecycle at Info); nil discards.
	Logger *slog.Logger
}

// PipelineConfig configures hybrid pipeline-parallel × flexible-SP planning.
type PipelineConfig struct {
	// Degrees are the candidate PP degrees (default 1, 2, 4, 8).
	Degrees []int
	// HeadsCap applies the Ulysses head-count SP-degree cap to the whole
	// system (flat and pipelined plans alike): SP degree ≤ the largest
	// power of two not exceeding the model's attention head count.
	HeadsCap bool
}

// System is a ready-to-use FlexSP instance.
type System struct {
	// Topo is the cluster topology; on a heterogeneous fleet it is the
	// conservative bottleneck view (same device count, slowest class rates).
	Topo cluster.Topology
	// Coeffs mirrors Topo: the scalar cost model, or the bottleneck view of
	// a mixed fleet.
	Coeffs  costmodel.Coeffs
	Planner *planner.Planner
	Solver  *solver.Solver
	// Joint is the hybrid PP×SP planner behind the pipeline strategy.
	Joint *pipeline.Planner
	// Hetero is non-nil on mixed clusters: the placement-aware cost model
	// that planning and execution use.
	Hetero *costmodel.HeteroCoeffs

	includeZeRO bool
	pool        *cluster.GroupPool
	serve       ServeConfig
	cfg         Config
	elastic     *cluster.Elastic
	cal         *calib.File

	// ring is the lazily built ring-attention solver behind the ring
	// strategy (see System.ringSolver in plan.go).
	ringOnce sync.Once
	ring     *solver.Solver
}

// NewSystem builds a System for the given configuration. Invalid
// configurations (see Config.Validate) return an error instead of
// panicking.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Devices == 0 {
		cfg.Devices = 64
	}
	if cfg.Model.Name == "" {
		cfg.Model = costmodel.GPT7B
	}

	// Calibration overlays fitted coefficients after all profile shaping
	// (style, head caps) so only the α-β values change; no Calibration path
	// leaves the analytic numbers byte-for-byte untouched.
	sys := &System{includeZeRO: cfg.IncludeZeRO, serve: cfg.Serve, cfg: cfg}
	if cfg.Calibration != "" {
		c, err := calib.Load(cfg.Calibration)
		if err != nil {
			return nil, fmt.Errorf("flexsp: %w", err)
		}
		sys.cal = c
	}

	var pl *planner.Planner
	var mixedTopo cluster.MixedTopology
	scalar := func(topo cluster.Topology) {
		c := costmodel.Profile(cfg.Model, topo).WithStyle(cfg.CommStyle)
		if cfg.Pipeline.HeadsCap {
			c = c.WithHeadsCap()
		}
		if sys.cal != nil && len(mixedTopo.NodeGroups) > 0 {
			c, _ = sys.cal.Apply(c, mixedTopo.NodeGroups[0].Class.Name)
		}
		pl = planner.New(c)
	}
	if cfg.Cluster != "" {
		// Unreachable after Validate; kept defensive without duplicating
		// Validate's error wording.
		mixed, err := cluster.ParseClusterSpec(cfg.Cluster)
		if err != nil {
			return nil, fmt.Errorf("flexsp: %w", err)
		}
		mixedTopo = mixed
		if uni, ok := mixed.Uniform(); ok {
			// Single class: every range prices alike, so the scalar
			// planners apply unchanged.
			scalar(uni)
		} else {
			h, err := sys.profileMixed(mixed)
			if err != nil {
				return nil, fmt.Errorf("flexsp: profiling %q: %w", cfg.Cluster, err)
			}
			pl = planner.NewHetero(h)
		}
	} else {
		t, err := cluster.NewA100Cluster(cfg.Devices)
		if err != nil {
			// Unreachable after Validate (which owns the wording).
			return nil, fmt.Errorf("flexsp: %w", err)
		}
		mixedTopo, _ = cluster.MixedCluster(cluster.ClassCount{Class: cluster.A100_40G, Devices: cfg.Devices})
		scalar(t)
	}
	sys.setPlanner(pl)
	// An elastic view of the same fleet backs live-topology planning
	// (System.Topology, the daemon's /v2/topology). A fleet MixedCluster
	// cannot model (unreachable for specs Validate accepts) leaves it nil.
	if len(mixedTopo.NodeGroups) > 0 {
		sys.elastic, _ = cluster.NewElastic(mixedTopo)
	}
	return sys, nil
}

// profileMixed profiles the system's model on a fleet for placement-aware
// planning, shaped like every profile of the system: communication style,
// head-count cap and calibration.
func (s *System) profileMixed(mixed cluster.MixedTopology) (costmodel.HeteroCoeffs, error) {
	h := costmodel.ProfileMixed(s.cfg.Model, mixed).WithStyle(s.cfg.CommStyle)
	if err := h.Validate(); err != nil {
		return h, err
	}
	if s.cfg.Pipeline.HeadsCap {
		h = h.WithHeadsCap()
	}
	if s.cal != nil {
		// Ranges spanning one device class — straggler pseudo-classes
		// included — get their class's fitted entry.
		h.Calibrate = s.cal.Calibrator()
	}
	return h, nil
}

// setPlanner completes s around its planner: the cost-model views, the
// solver, the joint PP×SP planner pricing groups the same way, and the
// communicator pool. NewSystem and every elastic rebuild fill a System
// through it.
func (s *System) setPlanner(pl *planner.Planner) {
	s.Planner = pl
	s.Coeffs = pl.Coeffs
	s.Topo = pl.Coeffs.Topo
	s.Hetero = pl.Hetero
	s.Solver = s.newSolver(pl)
	jp := pipeline.NewPlanner(pl.Coeffs)
	if pl.Hetero != nil {
		jp = pipeline.NewHeteroPlanner(*pl.Hetero)
	}
	s.Joint = s.newJoint(jp)
	s.pool = cluster.NewGroupPool(s.Topo.NumDevices(), cluster.DefaultGroupCreation)
}

// newSolver puts a planner under the system's planning configuration —
// strategy, Alg. 1 trials, ZeRO accounting — and returns its solver: the one
// builder behind the system's solver, every elastic rebuild and the ring
// strategy.
func (s *System) newSolver(pl *planner.Planner) *solver.Solver {
	pl.Strategy = s.cfg.Planner
	sv := solver.New(pl)
	if s.cfg.Trials > 0 {
		sv.Trials = s.cfg.Trials
	}
	if s.cfg.IncludeZeRO {
		// Let the solver account for the exposed per-micro-batch ZeRO cost
		// when choosing the micro-batch count.
		sv.Overhead = pl.Coeffs.ZeROTime()
	}
	return sv
}

// newJoint puts a joint PP×SP planner under the system's planning
// configuration.
func (s *System) newJoint(jp *pipeline.Planner) *pipeline.Planner {
	jp.Strategy = s.cfg.Planner
	jp.IncludeZeRO = s.cfg.IncludeZeRO
	if s.cfg.Trials > 0 {
		jp.Trials = s.cfg.Trials
	}
	if len(s.cfg.Pipeline.Degrees) > 0 {
		jp.Degrees = s.cfg.Pipeline.Degrees
	}
	return jp
}

// Calibration returns the tag of the loaded calibration file (e.g.
// "v3 (sim-grid)"), or the empty string when the system runs on the analytic
// built-in cost model. The same tag appears in plan explanations, /v2/plan
// envelopes, and the daemon's calibration metrics.
func (s *System) Calibration() string { return s.calTag() }

// calTag is Calibration with a nil-safe receiver path for internal callers.
func (s *System) calTag() string {
	if s.cal == nil {
		return ""
	}
	return s.cal.Tag()
}

// serverCalibration projects the loaded calibration file's identity into the
// daemon's config: version gauge, staleness, and envelope tag.
func (s *System) serverCalibration() server.CalibrationInfo {
	if s.cal == nil {
		return server.CalibrationInfo{}
	}
	return server.CalibrationInfo{
		Version:      s.cal.Version,
		Source:       s.cal.Source,
		FittedAtUnix: s.cal.FittedAtUnix,
		Tag:          s.cal.Tag(),
	}
}

// Topology is the system's elastic view of the fleet: apply node-loss,
// straggler, and rejoin events to it and take live snapshots. The daemon's
// POST /v2/topology (ServeConfig.Elastic) drives the same object. Nil when
// the fleet cannot be modeled elastically.
func (s *System) Topology() *cluster.Elastic {
	return s.elastic
}

// rebuildFor builds the System for a live topology snapshot and returns its
// solver and server strategies: the elastic daemon's Rebuild hook, so every
// strategy the daemon serves plans for the live fleet. The snapshot's fleet
// is always planned by a range-placing planner — every served group carries
// its device range on the live fleet, and straggler derating creates
// per-node pseudo-classes even on a single-class fleet — and the solver is
// returned without a plan cache so the server attaches a fresh one (stale
// cached placements from the previous fleet must not leak in).
func (s *System) rebuildFor(snap cluster.Snapshot) (*solver.Solver, map[string]server.StrategyFunc, error) {
	if len(snap.Mixed.NodeGroups) == 0 {
		return nil, nil, fmt.Errorf("flexsp: no live devices in topology version %d", snap.Version)
	}
	h, err := s.profileMixed(snap.Mixed)
	if err != nil {
		return nil, nil, fmt.Errorf("flexsp: profiling topology version %d: %w", snap.Version, err)
	}
	live := &System{includeZeRO: s.includeZeRO, serve: s.serve, cfg: s.cfg, cal: s.cal}
	live.setPlanner(planner.NewHetero(h))
	return live.Solver, live.serverStrategies(), nil
}

// MustNewSystem is NewSystem for terse examples and tests: it panics on an
// invalid configuration instead of returning an error.
func MustNewSystem(cfg Config) *System {
	s, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// WarmupGroups pre-creates every aligned power-of-two communicator (the
// full buddy hierarchy, ≤ 2N−1 groups, log N per device) and returns the
// one-time creation cost in simulated seconds. Production deployments pay
// this once at startup; afterwards hot switching between any SP layouts is
// free (§5).
func (s *System) WarmupGroups() float64 {
	var total float64
	n := s.Topo.NumDevices()
	for size := 2; size <= n; size *= 2 {
		for start := 0; start+size <= n; start += size {
			total += s.pool.Acquire(cluster.DeviceRange{Start: start, Size: size})
		}
	}
	return total
}

// executeMicro replays micro-batch plans on the simulated cluster, reusing
// communicators across calls (hot switching). On a mixed cluster every group
// is costed against the device classes of the range it occupies.
func (s *System) executeMicro(plans []planner.MicroPlan, seed int64) (sim.IterResult, error) {
	return s.executeMicroWith(s.Planner, plans, seed)
}

// executeMicroWith replays plans under a specific planner's cost model — the
// system default, or an alternate profile like the ring strategy's flexible-CP
// solver — sharing the communicator pool either way.
func (s *System) executeMicroWith(pl *planner.Planner, plans []planner.MicroPlan, seed int64) (sim.IterResult, error) {
	return sim.ExecutePriced(pl.Pricing(), plans, sim.Options{IncludeZeRO: s.includeZeRO, Pool: s.pool, Seed: seed})
}

// Execute replays an iteration's micro-batch plans — e.g. plans decoded from
// a planning daemon's response — on the simulated cluster, reusing
// communicators across calls (hot switching). Plans produced by System.Plan
// carry their own Execute method; use that when you have a Plan.
func (s *System) Execute(plans []planner.MicroPlan) (sim.IterResult, error) {
	return s.executeMicro(plans, 0)
}

// Train runs iters plan+execute iterations over batches drawn by nextBatch
// and returns the per-iteration results. opts selects the strategy (and
// baseline sizing) for every iteration; the context cancels mid-run.
func (s *System) Train(ctx context.Context, iters int, opts PlanOptions, nextBatch func(iter int) []int) ([]ExecResult, error) {
	var out []ExecResult
	for i := 0; i < iters; i++ {
		p, err := s.Plan(ctx, nextBatch(i), opts)
		if err != nil {
			return out, fmt.Errorf("flexsp: iteration %d plan: %w", i, err)
		}
		exec, err := p.Execute(ctx)
		if err != nil {
			return out, fmt.Errorf("flexsp: iteration %d execute: %w", i, err)
		}
		out = append(out, exec)
	}
	return out, nil
}

// NewServer builds the HTTP planning daemon (§5 as a standalone service)
// over this system, configured by Config.Serve. It serves the versioned wire
// protocol: POST /v2/plan dispatches every registered strategy by name. The
// returned server is an http.Handler; serve it with an http.Server and call
// its Drain method before Shutdown for a graceful SIGTERM. Creating the
// server attaches a shared plan cache to the system's solver if it has
// none.
func (s *System) NewServer() (*server.Server, error) {
	sv, strategies := s.Solver, s.serverStrategies()
	var elastic *cluster.Elastic
	var rebuild func(cluster.Snapshot) (*solver.Solver, map[string]server.StrategyFunc, error)
	if s.serve.Elastic {
		if s.elastic == nil {
			return nil, fmt.Errorf("flexsp: ServeConfig.Elastic set but the fleet has no elastic topology")
		}
		elastic = s.elastic
		rebuild = s.rebuildFor
		// The initial plan state comes from the same rebuild path as every
		// replan: served groups carry their device ranges from the start,
		// and a daemon booted on a fleet plans as one replanned onto it.
		var err error
		if sv, strategies, err = s.rebuildFor(elastic.Snapshot()); err != nil {
			return nil, err
		}
	}
	return server.New(server.Config{
		Solver:           sv,
		Strategies:       strategies,
		Calibration:      s.serverCalibration(),
		Topology:         elastic,
		Rebuild:          rebuild,
		ReplanDebounce:   s.serve.ReplanDebounce,
		QueueLimit:       s.serve.QueueLimit,
		TenantLimit:      s.serve.TenantLimit,
		BatchWindow:      s.serve.BatchWindow,
		CacheEntries:     s.serve.CacheEntries,
		CacheGranularity: s.serve.CacheGranularity,
		TraceEntries:     s.serve.TraceEntries,
		StreamLimit:      s.serve.StreamLimit,
		StreamTimeout:    s.serve.StreamTimeout,
		Logger:           s.serve.Logger,
	})
}

// serverStrategies exposes every registered strategy except flexsp to POST
// /v2/plan, planned on this System. The daemon plans flexsp itself, on the
// solver of its plan state, because its stream sessions and plan cache run
// on that solver.
func (s *System) serverStrategies() map[string]server.StrategyFunc {
	out := make(map[string]server.StrategyFunc)
	for _, name := range Strategies() {
		if name == StrategyFlexSP {
			continue
		}
		name := name
		out[name] = func(ctx context.Context, spec server.PlanSpec) (server.PlanEnvelope, error) {
			start := time.Now()
			p, err := s.Plan(ctx, spec.Lengths, PlanOptions{Strategy: name, MaxCtx: spec.MaxCtx})
			if err != nil {
				return server.PlanEnvelope{}, err
			}
			env := EncodePlan(p, time.Since(start))
			if spec.Explain {
				env.Explain = p.Explain()
			}
			return env, nil
		}
	}
	return out
}
