// Package server turns the FlexSP solver into a long-lived HTTP/JSON
// planning daemon — the solver-as-a-service deployment of paper §5, where
// sequence-parallel planning is disaggregated from training and runs ahead
// of each step as a standalone, multi-tenant component.
//
// The daemon speaks a versioned wire protocol over a solver.Solver, which
// plans the built-in flexsp strategy, and a table of named strategies the
// facade supplies (the joint PP×SP pipeline, ring, the baselines and custom
// registrations):
//
//	POST /v2/plan             {"strategy","lengths","maxCtx","tenant",
//	                          "explain"} → tagged plan envelope (version,
//	                          strategy, flat | pipelined | megatron section,
//	                          optional provenance)
//	POST /v2/stream/open      {"tenant","expect"} → {"session","expect"};
//	                          sequences append incrementally, and the append
//	                          that reaches "expect" starts a background solve
//	POST /v2/stream/{id}/append  {"lengths"} → running total
//	POST /v2/stream/{id}/close   seal the session → plan envelope, from the
//	                          background solve when it covered exactly the
//	                          closed batch, else solved at close
//	POST /v2/topology         {"events":[...]} → apply topology events to the
//	                          elastic fleet and wake the background replan
//	                          loop (501 on a static daemon)
//	GET  /v2/topology         live-fleet summary: version, health counts,
//	                          replan progress
//	GET  /v1/metrics          cache/dedup counters, queue depth, p50/p99
//	GET  /metrics             the same counters as Prometheus text
//	GET  /v2/trace            recent request trace IDs, newest first
//	GET  /v2/trace/{id}       one request's Chrome-trace JSON export
//	GET  /healthz             liveness (503 while draining)
//
// An elastic daemon (Config.Topology + Config.Rebuild) additionally keeps
// its plan state in step with a live fleet: topology events debounce into a
// background replan that rebuilds the solver and the strategy table for the
// new fleet and swaps them in, so every plan after it is the one a daemon
// booted on that fleet would serve. Requests racing the replan are served
// from the previous plan state flagged "degraded":true, whichever strategy
// they name.
//
// Three layers keep it standing under heavy traffic: admission control (a
// bounded queue plus per-tenant concurrency limits, overflow answered with
// 429), request batching (compatible requests — same lengths, strategy,
// maxCtx and explain flag — arriving within a short window coalesce into one
// solver pass and share one pre-encoded response), and the solver's sharded
// PlanCache (repeated length signatures skip planning entirely). Drain()
// plus http.Server.Shutdown give a graceful SIGTERM: in-flight solves
// complete, new work is refused with 503.
//
// Every request is traced end to end: the handler opens an obs trace whose
// spans cover the batching pass, the solver trials and micro-batch plans,
// and the branch-and-bound search; completed traces land in a bounded ring
// served by GET /v2/trace/{id}, and the trace and request IDs echo back in
// the X-Flexsp-Trace-Id and X-Flexsp-Request-Id response headers.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flexsp/internal/cluster"
	"flexsp/internal/obs"
	"flexsp/internal/solver"
)

// PlanSpec is what one strategy invocation is asked to plan: the batch, the
// baseline sizing knob, and whether to attach provenance to the envelope.
type PlanSpec struct {
	// Lengths is the batch's sequence lengths.
	Lengths []int
	// MaxCtx sizes the static baselines (deepspeed, megatron); adaptive
	// strategies ignore it.
	MaxCtx int
	// Explain asks the strategy to attach ExplainJSON provenance.
	Explain bool
}

// StrategyFunc produces one named strategy's tagged plan envelope for POST
// /v2/plan, planned for the fleet view of the plan state it belongs to. The
// facade registers its strategy registry here; only flexsp is built in (it
// runs on the plan state's solver).
type StrategyFunc func(ctx context.Context, spec PlanSpec) (PlanEnvelope, error)

// Config configures a Server.
type Config struct {
	// Solver handles the flexsp strategy; required. If it has no PlanCache
	// one is attached (sized by CacheEntries/CacheGranularity), so repeated
	// signatures always hit.
	Solver *solver.Solver
	// CacheEntries and CacheGranularity size the plan cache attached when
	// Solver arrives without one (defaults 1024 entries, 256-token
	// rounding); they are ignored for a solver that already has a cache.
	CacheEntries, CacheGranularity int
	// Strategies are the named strategies POST /v2/plan serves beside the
	// built-in flexsp, planned for the boot fleet (the facade passes its
	// registry: pipeline, ring, deepspeed, batchada, megatron, plus any
	// custom registrations). Names are case-insensitive; an entry named
	// "flexsp" is ignored. A daemon without a "pipeline" entry answers that
	// name with 501.
	Strategies map[string]StrategyFunc
	// QueueLimit bounds admitted requests (waiting in a batching window or
	// solving); overflow is answered with 429. Default 64.
	QueueLimit int
	// TenantLimit bounds concurrently admitted requests per tenant label
	// (the empty tenant is one shared bucket). Default 16.
	TenantLimit int
	// BatchWindow is how long the first request for a signature waits for
	// compatible requests to coalesce with before solving. Zero takes the
	// 2ms default; negative disables the wait and, in effect, coalescing:
	// a pass leaves the batcher before its solve starts, so a request
	// arriving mid-solve opens a pass of its own (typically a plan-cache
	// hit) instead of joining.
	BatchWindow time.Duration
	// TraceEntries bounds the ring of completed request traces behind
	// GET /v2/trace/{id}. Zero takes the default 64; negative disables
	// per-request tracing entirely.
	TraceEntries int
	// StreamLimit bounds concurrently open streaming sessions; opens beyond
	// it are refused with 429. Default 64.
	StreamLimit int
	// StreamTimeout reaps a streaming session idle (no append or close)
	// for this long. Zero takes the 60s default; negative disables the
	// idle timeout.
	StreamTimeout time.Duration
	// Logger receives structured request and lifecycle logs (requests at
	// Debug, drain at Info). Nil discards.
	Logger *slog.Logger
	// Topology makes the daemon elastic: POST /v2/topology applies events
	// to it and a background loop replans after changes. Requires Rebuild.
	// Nil keeps the daemon static (topology routes answer 501).
	Topology *cluster.Elastic
	// Rebuild constructs the solver and the strategy table for a new
	// topology snapshot during a replan; the two swap in together, so every
	// strategy plans for the live fleet. The table must answer every name
	// Config.Strategies does (extra names are dropped, so each plan state
	// answers the same names). The returned solver may come without a cache;
	// one is attached (CacheEntries/CacheGranularity). Errors, a missing name
	// included, keep the previous plan state serving, flagged degraded.
	Rebuild func(cluster.Snapshot) (*solver.Solver, map[string]StrategyFunc, error)
	// ReplanDebounce is how long the replan loop waits after a topology
	// event for further events to coalesce before replanning. Zero takes
	// the 100ms default; negative replans immediately.
	ReplanDebounce time.Duration
	// Calibration identifies the fitted cost-model coefficient set the
	// daemon's solvers plan with. The zero value means the analytic built-in
	// profile: the calibration gauge reports version 0 and envelopes carry no
	// calibration tag.
	Calibration CalibrationInfo
}

// Server is the planning daemon. It implements http.Handler; wrap it in an
// http.Server (or httptest.Server) to serve it.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	batch  *batcher // /v2/plan passes, keyed by (strategy, maxCtx, explain, lengths)
	start  time.Time
	logger *slog.Logger

	sem      chan struct{} // admission slots; len(sem) is the queue depth
	draining atomic.Bool

	tenantMu sync.Mutex
	tenants  map[string]int

	streamMu sync.Mutex
	streams  map[string]*streamSession

	// planning is the atomically swapped plan state (solver, strategy
	// table, topology snapshot); the replan loop is its only writer.
	// retired* accumulate counters of solvers replaced by replans so
	// Prometheus series stay monotonic across swaps.
	planning      atomic.Pointer[planState]
	replanCancel  context.CancelFunc
	replanDone    chan struct{}
	closeOnce     sync.Once
	retiredMu     sync.Mutex
	retiredCache  solver.CacheStats
	retiredSolver solver.SolverMetrics

	met       metrics
	reg       *obs.Registry
	traces    *obs.TraceRing // nil when tracing is disabled
	traced    *obs.Counter
	envelopes *envelopeCache
}

// envelopeCacheEntries bounds the cache of pre-encoded /v2/plan envelopes
// behind GET /v2/cache/{sig}.
const envelopeCacheEntries = 512

// New builds a Server. A nil cfg.Solver is a configuration error and is
// returned as one, not panicked on.
func New(cfg Config) (*Server, error) {
	if cfg.Solver == nil {
		return nil, fmt.Errorf("server: Config.Solver is required")
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 64
	}
	if cfg.TenantLimit <= 0 {
		cfg.TenantLimit = 16
	}
	switch {
	case cfg.BatchWindow == 0:
		cfg.BatchWindow = 2 * time.Millisecond
	case cfg.BatchWindow < 0:
		cfg.BatchWindow = 0
	}
	if cfg.StreamLimit <= 0 {
		cfg.StreamLimit = 64
	}
	switch {
	case cfg.StreamTimeout == 0:
		cfg.StreamTimeout = 60 * time.Second
	case cfg.StreamTimeout < 0:
		cfg.StreamTimeout = 0
	}
	switch {
	case cfg.ReplanDebounce == 0:
		cfg.ReplanDebounce = 100 * time.Millisecond
	case cfg.ReplanDebounce < 0:
		cfg.ReplanDebounce = 0
	}
	if cfg.Topology != nil && cfg.Rebuild == nil {
		return nil, fmt.Errorf("server: Config.Topology requires Config.Rebuild")
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	reg := obs.NewRegistry()
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		start:   time.Now(),
		logger:  logger,
		sem:     make(chan struct{}, cfg.QueueLimit),
		tenants: make(map[string]int),
		streams: make(map[string]*streamSession),
		met:     newMetrics(reg),
		reg:     reg,
	}
	switch {
	case cfg.TraceEntries == 0:
		s.traces = obs.NewTraceRing(64)
	case cfg.TraceEntries > 0:
		s.traces = obs.NewTraceRing(cfg.TraceEntries)
	}
	s.envelopes = newEnvelopeCache(envelopeCacheEntries)
	var snap cluster.Snapshot
	if cfg.Topology != nil {
		snap = cfg.Topology.Snapshot()
	}
	st, err := s.newPlanState(cfg.Solver, cfg.Strategies, snap, nil)
	if err != nil {
		return nil, err
	}
	s.planning.Store(st)
	s.registerGauges()
	s.batch = newBatcher(cfg.BatchWindow, s.runV2)
	s.mux.HandleFunc("POST /v2/plan", s.handlePlanV2)
	s.mux.HandleFunc("POST /v2/stream/open", s.handleStreamOpen)
	s.mux.HandleFunc("POST /v2/stream/{id}/append", s.handleStreamAppend)
	s.mux.HandleFunc("POST /v2/stream/{id}/close", s.handleStreamClose)
	s.mux.HandleFunc("GET /v2/cache/{sig}", s.handleCacheFetch)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics", s.handlePrometheus)
	s.mux.HandleFunc("GET /v2/trace", s.handleTraceList)
	s.mux.HandleFunc("GET /v2/trace/{id}", s.handleTrace)
	s.mux.HandleFunc("POST /v2/topology", s.handleTopologyPost)
	s.mux.HandleFunc("GET /v2/topology", s.handleTopologyGet)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	if cfg.Topology != nil {
		rctx, cancel := context.WithCancel(context.Background())
		s.replanCancel = cancel
		s.replanDone = make(chan struct{})
		go s.replanLoop(rctx)
	}
	return s, nil
}

// Close stops the background replan loop (a no-op on a static daemon). It
// is idempotent and safe to call while requests are in flight: the current
// plan state keeps serving, it just stops tracking topology events.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.replanCancel != nil {
			s.replanCancel()
			<-s.replanDone
		}
	})
}

// registerGauges wires the derived series — uptime, queue state, plan-cache
// and solver counters — into the Prometheus registry as read-on-scrape
// functions, so the hot path pays nothing for them.
func (s *Server) registerGauges() {
	s.reg.GaugeFunc("flexsp_uptime_seconds", "Seconds since the daemon started.",
		func() float64 { return time.Since(s.start).Seconds() })
	s.reg.GaugeFunc("flexsp_draining", "1 while draining, else 0.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	s.reg.GaugeFunc("flexsp_queue_depth", "Requests currently admitted (batching window or solving).",
		func() float64 { return float64(len(s.sem)) })
	s.reg.GaugeFunc("flexsp_queue_limit", "Admission queue bound.",
		func() float64 { return float64(s.cfg.QueueLimit) })
	s.reg.CounterFunc("flexsp_plan_cache_hits_total", "Plan cache hits.",
		func() float64 { return float64(s.cacheStats().Hits) })
	s.reg.CounterFunc("flexsp_plan_cache_misses_total", "Plan cache misses.",
		func() float64 { return float64(s.cacheStats().Misses) })
	s.reg.CounterFunc("flexsp_plan_cache_dedups_total", "Micro-batches answered by a repeat within one solve.",
		func() float64 { return float64(s.cacheStats().Dedups) })
	s.reg.CounterFunc("flexsp_plan_cache_evictions_total", "Plan cache evictions.",
		func() float64 { return float64(s.cacheStats().Evictions) })
	s.reg.GaugeFunc("flexsp_plan_cache_entries", "Plans currently cached.",
		func() float64 { return float64(s.planState().solver.Cache.Len()) })
	s.reg.CounterFunc("flexsp_solver_solves_total", "Completed solver calls.",
		func() float64 { return float64(s.solverMetrics().Solves) })
	s.reg.CounterFunc("flexsp_solver_canceled_total", "Solver calls canceled by context.",
		func() float64 { return float64(s.solverMetrics().Canceled) })
	s.reg.CounterFunc("flexsp_solver_planned_total", "Micro-batches that reached the planner.",
		func() float64 { return float64(s.solverMetrics().Planned) })
	s.reg.CounterFunc("flexsp_solver_deduped_total", "Micro-batches answered by a repeat within one solve.",
		func() float64 { return float64(s.solverMetrics().Deduped) })
	if s.cfg.Topology != nil {
		s.reg.GaugeFunc("flexsp_topology_version", "Current topology version of the elastic fleet.",
			func() float64 { return float64(s.cfg.Topology.Version()) })
		s.reg.GaugeFunc("flexsp_topology_plan_version", "Topology version the serving plan state was built for.",
			func() float64 { return float64(s.planState().snap.Version) })
		s.reg.GaugeFunc("flexsp_topology_nodes_down", "Physical nodes currently down.",
			func() float64 { return float64(s.cfg.Topology.Snapshot().Down) })
		s.reg.GaugeFunc("flexsp_topology_nodes_straggling", "Physical nodes currently straggling.",
			func() float64 { return float64(s.cfg.Topology.Snapshot().Straggling) })
	}
	s.reg.GaugeFunc("flexsp_stream_sessions", "Streaming sessions currently open.",
		func() float64 {
			s.streamMu.Lock()
			defer s.streamMu.Unlock()
			return float64(len(s.streams))
		})
	s.reg.GaugeFunc("flexsp_envelope_cache_entries", "Pre-encoded /v2/plan envelopes cached for peer fetch.",
		func() float64 { return float64(s.envelopes.len()) })
	s.reg.GaugeFunc("flexsp_calibration_version", "Version of the loaded cost-model calibration (0 = analytic defaults).",
		func() float64 { return float64(s.cfg.Calibration.Version) })
	s.reg.GaugeFunc("flexsp_calibration_staleness_seconds", "Seconds since the loaded calibration was fitted (0 when uncalibrated or unstamped).",
		func() float64 { return s.cfg.Calibration.staleness() })
	s.traced = s.reg.Counter("flexsp_traces_recorded_total", "Request traces recorded in the ring.")
}

// StrategyNames returns the names POST /v2/plan accepts, sorted. Every plan
// state answers the same names.
func (s *Server) StrategyNames() []string {
	st := s.planState()
	names := append(make([]string, 0, len(st.strategies)+1), "flexsp")
	for name := range st.strategies {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ServeHTTP dispatches to the daemon's routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain puts the server into draining mode: /healthz turns 503 (so load
// balancers stop routing here) and new plan requests are refused with 503,
// while requests already admitted run to completion. Pair it with
// http.Server.Shutdown, which waits for in-flight handlers, for a graceful
// SIGTERM.
func (s *Server) Drain() {
	if s.draining.CompareAndSwap(false, true) {
		s.logger.Info("draining: refusing new plan requests")
	}
}

// statusClientGone is nginx's 499 "client closed request": every member of
// the pass disconnected, so the solve was abandoned and nobody reads the
// response. It must be non-zero — status 0 marks an abandoned-before-solve
// pass that joiners retry.
const statusClientGone = 499

// planFlexSP is the built-in flexsp strategy: one solve on the plan state's
// solver, wrapped in the v2 envelope.
func (s *Server) planFlexSP(ctx context.Context, st *planState, spec PlanSpec) (PlanEnvelope, error) {
	res, err := st.solver.SolveContext(ctx, spec.Lengths)
	if err != nil {
		return PlanEnvelope{}, err
	}
	return s.flexEnvelope(st, res, spec.Explain), nil
}

// flexEnvelope wraps a flexsp solve on st in the v2 envelope: the one
// builder behind POST /v2/plan and stream closes, so both carry the
// calibration tag and explain the plan alike.
func (s *Server) flexEnvelope(st *planState, res solver.Result, explain bool) PlanEnvelope {
	sr := EncodeResult(res)
	env := PlanEnvelope{
		Version:          WireVersion,
		Strategy:         "flexsp",
		EstTime:          sr.EstTime,
		SolveWallSeconds: sr.SolveWallSeconds,
		Calibration:      s.cfg.Calibration.Tag,
		Flat:             &sr,
	}
	if explain {
		env.Explain = ExplainFlat(st.solver.Planner, res, "flexsp")
		env.Explain.Calibration = s.cfg.Calibration.Tag
	}
	return env
}

// runV2 is the /v2/plan pass: one strategy call, encoded as the full tagged
// envelope. One plan state serves the whole pass: it plans, it decides
// whether the envelope is degraded, and it stamps the envelope-cache entry
// behind GET /v2/cache/{sig} (where fleet peers reuse this replica's plans
// after a routing rebalance), so a replan that lands mid-pass cannot pass an
// old-fleet plan off as current.
func (s *Server) runV2(ctx context.Context, job planJob) ([]byte, int) {
	s.met.solves.Add(1)
	ctx, span := obs.Start(ctx, "server.pass")
	defer span.End()
	span.SetAttr("strategy", job.strategy)
	span.SetAttr("seqs", len(job.lens))
	st := s.planState()
	spec := PlanSpec{Lengths: job.lens, MaxCtx: job.maxCtx, Explain: job.explain}
	var env PlanEnvelope
	var err error
	if job.strategy == "flexsp" {
		env, err = s.planFlexSP(ctx, st, spec)
	} else {
		// Validated before admission; every plan state answers the same names.
		env, err = st.strategies[job.strategy](ctx, spec)
	}
	switch {
	case ctx.Err() != nil:
		span.SetError(ctx.Err())
		return encodeJSON(ErrorResponse{Error: "canceled: all requesting clients disconnected"}), statusClientGone
	case err != nil:
		span.SetError(err)
		return encodeJSON(ErrorResponse{Error: err.Error()}), http.StatusUnprocessableEntity
	}
	env.Degraded = s.degradedPlan(st)
	span.SetAttr("est_time", env.EstTime)
	body := encodeJSON(env)
	if !env.Degraded {
		s.storeEnvelope(job, st, body)
	}
	return body, http.StatusOK
}

// decodeRequest decodes a JSON request body with the shared size limit,
// answering 400 on malformed input.
func decodeRequest(w http.ResponseWriter, r *http.Request, out any, met *metrics) bool {
	r.Body = http.MaxBytesReader(w, r.Body, 32<<20)
	if err := json.NewDecoder(r.Body).Decode(out); err != nil {
		met.errors.Add(1)
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return false
	}
	return true
}

// handlePlanV2 serves POST /v2/plan: validate the strategy name against the
// table, then admit, batch, and respond.
func (s *Server) handlePlanV2(w http.ResponseWriter, r *http.Request) {
	var req PlanRequest
	if !decodeRequest(w, r, &req, &s.met) {
		return
	}
	// Strategy names are case-insensitive, like the facade registry.
	req.Strategy = strings.ToLower(req.Strategy)
	if req.Strategy == "" {
		req.Strategy = "flexsp"
	}
	if req.MaxCtx < 0 {
		s.met.errors.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Sprintf("negative maxCtx %d", req.MaxCtx))
		return
	}
	if req.Strategy != "flexsp" && s.planState().strategies[req.Strategy] == nil {
		s.met.errors.Add(1)
		if req.Strategy == "pipeline" {
			writeError(w, http.StatusNotImplemented, "pipelined planning not configured")
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown strategy %q (known: %s)",
			req.Strategy, strings.Join(s.StrategyNames(), ", ")))
		return
	}
	s.servePlan(w, r,
		planJob{lens: req.Lengths, strategy: req.Strategy, maxCtx: req.MaxCtx, explain: req.Explain},
		req.Tenant)
}

// servePlan is the plan route tail: validate lengths, admit, open the
// request trace, batch, respond. The request ID (client-supplied
// X-Flexsp-Request-Id or freshly minted) and the trace ID echo back as
// response headers; the completed trace lands in the ring behind
// GET /v2/trace/{id}.
func (s *Server) servePlan(w http.ResponseWriter, r *http.Request, job planJob, tenant string) {
	for _, l := range job.lens {
		if l <= 0 {
			s.met.errors.Add(1)
			writeError(w, http.StatusBadRequest, fmt.Sprintf("non-positive sequence length %d", l))
			return
		}
	}

	release, status, msg := s.admit(tenant)
	if status != 0 {
		writeError(w, status, msg)
		return
	}
	defer release()
	s.met.requests.Add(1)

	ctx := r.Context()
	rid := r.Header.Get("X-Flexsp-Request-Id")
	if rid == "" {
		rid = obs.NewRequestID()
	}
	ctx = obs.WithRequestID(ctx, rid)
	w.Header().Set("X-Flexsp-Request-Id", rid)

	var tr *obs.Trace
	if s.traces != nil {
		ctx, tr = obs.NewTrace(ctx, "server.request")
		root := tr.Root()
		root.SetAttr("strategy", job.strategy)
		root.SetAttr("seqs", len(job.lens))
		root.SetAttr("request_id", rid)
		if tenant != "" {
			root.SetAttr("tenant", tenant)
		}
		w.Header().Set("X-Flexsp-Trace-Id", tr.ID())
	}

	admitted := time.Now()
	body, code, members, joined, err := s.batch.do(ctx, job)
	elapsed := time.Since(admitted)
	finish := func(code int) {
		if tr != nil {
			root := tr.Root()
			root.SetAttr("status", code)
			root.SetAttr("pass_members", members)
			if joined {
				root.SetAttr("coalesced", true)
			}
			tr.End()
			s.traces.Add(tr)
			s.traced.Inc()
		}
		s.logger.Debug("plan request",
			"request_id", rid,
			"strategy", job.strategy,
			"seqs", len(job.lens),
			"tenant", tenant,
			"status", code,
			"coalesced", joined,
			"latency", elapsed)
	}
	if err != nil {
		// The client went away; nothing useful can be written.
		s.met.errors.Add(1)
		finish(statusClientGone)
		return
	}
	if joined {
		s.met.coalesced.Add(1)
	}
	if code/100 != 2 {
		// Errors count per request, not per pass: every member of a failed
		// pass sees the failure.
		s.met.errors.Add(1)
	}
	s.met.latency.Observe(elapsed.Seconds())
	finish(code)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Flexsp-Pass-Size", fmt.Sprint(members))
	w.WriteHeader(code)
	w.Write(body)
}

// admit applies drain, queue, and per-tenant admission. A zero status means
// admitted and release must be called; otherwise status/msg describe the
// refusal.
func (s *Server) admit(tenant string) (release func(), status int, msg string) {
	return s.admitAs(tenant, false)
}

// admitAs is admit with a drain bypass: a stream close finishing a session
// that was admitted before Drain may pass allowDrain (the daemon would
// otherwise strand every open session's final solve on SIGTERM). Queue and
// tenant limits still apply.
func (s *Server) admitAs(tenant string, allowDrain bool) (release func(), status int, msg string) {
	if !allowDrain && s.draining.Load() {
		s.met.unavailable.Add(1)
		return nil, http.StatusServiceUnavailable, "server is draining"
	}
	select {
	case s.sem <- struct{}{}:
	default:
		s.met.rejected.Add(1)
		return nil, http.StatusTooManyRequests, "queue full"
	}
	s.tenantMu.Lock()
	if s.tenants[tenant] >= s.cfg.TenantLimit {
		s.tenantMu.Unlock()
		<-s.sem
		s.met.rejected.Add(1)
		return nil, http.StatusTooManyRequests, fmt.Sprintf("tenant %q concurrency limit", tenant)
	}
	s.tenants[tenant]++
	s.tenantMu.Unlock()
	return func() {
		s.tenantMu.Lock()
		s.tenants[tenant]--
		if s.tenants[tenant] == 0 {
			delete(s.tenants, tenant)
		}
		s.tenantMu.Unlock()
		<-s.sem
	}, 0, ""
}

// Metrics returns the daemon's counter snapshot (the /v1/metrics body). The
// cache and solver sections are stabilized snapshots (each re-reads until two
// consecutive reads agree), so the response is point-in-time consistent
// against concurrent solves.
func (s *Server) Metrics() MetricsResponse {
	cache := s.cacheStats()
	return MetricsResponse{
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Draining:         s.draining.Load(),
		Strategies:       s.StrategyNames(),
		Requests:         s.met.requests.Value(),
		Solves:           s.met.solves.Value(),
		Coalesced:        s.met.coalesced.Value(),
		Rejected:         s.met.rejected.Value(),
		Unavailable:      s.met.unavailable.Value(),
		Errors:           s.met.errors.Value(),
		QueueDepth:       int64(len(s.sem)),
		QueueLimit:       s.cfg.QueueLimit,
		LatencyP50Millis: 1e3 * s.met.latency.Quantile(0.50),
		LatencyP99Millis: 1e3 * s.met.latency.Quantile(0.99),
		Cache:            cache,
		CacheHitRate:     cache.HitRate(),
		Solver:           s.solverMetrics(),
		Stream:           s.streamMetrics(),
		Topology:         s.topologyMetrics(),
		Calibration:      s.calibrationMetrics(),
	}
}

// calibrationMetrics projects the configured calibration identity into the
// /v1/metrics section.
func (s *Server) calibrationMetrics() CalibrationMetrics {
	c := s.cfg.Calibration
	return CalibrationMetrics{
		Version:          c.Version,
		Source:           c.Source,
		FittedAtUnix:     c.FittedAtUnix,
		StalenessSeconds: c.staleness(),
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(encodeJSON(s.Metrics()))
}

// handlePrometheus serves the same counters as Prometheus text exposition.
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// handleTraceList serves the ring's trace IDs, newest first.
func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		writeError(w, http.StatusNotImplemented, "request tracing disabled")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(encodeJSON(struct {
		Traces []string `json:"traces"`
	}{Traces: s.traces.List()}))
}

// handleTrace serves one completed request's Chrome-trace JSON, loadable in
// chrome://tracing or Perfetto.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		writeError(w, http.StatusNotImplemented, "request tracing disabled")
		return
	}
	body, ok := s.traces.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "trace not found (the ring keeps recent requests only)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(encodeJSON(ErrorResponse{Error: msg}))
}

// encodeJSON marshals v, panicking on failure: every wire type here
// marshals by construction.
func encodeJSON(v any) []byte {
	buf, err := json.Marshal(v)
	if err != nil {
		panic("server: encoding response: " + err.Error())
	}
	return append(buf, '\n')
}
