package server

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"flexsp/internal/cluster"
	"flexsp/internal/obs"
	"flexsp/internal/solver"
)

// planState is the immutable unit the daemon plans with: the solver behind
// flexsp and the table of every other strategy, both built for one topology
// snapshot. Requests and stream sessions load it atomically, the replan loop
// swaps it atomically, so an in-flight plan always finishes on the fleet
// view it started with even if the fleet changes mid-solve.
type planState struct {
	solver     *solver.Solver
	strategies map[string]StrategyFunc // lowercase names; never "flexsp"
	snap       cluster.Snapshot        // zero-valued on a static daemon
}

// newPlanState binds a solver and a strategy table to the fleet view snap,
// attaching a plan cache to a solver that has none. On a replan (cur
// non-nil) the table is trimmed to cur's names and must answer all of them,
// so a request validated against one plan state never reaches a missing
// strategy in the next.
func (s *Server) newPlanState(sv *solver.Solver, fns map[string]StrategyFunc, snap cluster.Snapshot, cur *planState) (*planState, error) {
	tbl := make(map[string]StrategyFunc, len(fns))
	for name, fn := range fns {
		if name = strings.ToLower(name); name != "" && name != "flexsp" && fn != nil {
			if cur == nil || cur.strategies[name] != nil {
				tbl[name] = fn
			}
		}
	}
	if cur != nil && len(tbl) != len(cur.strategies) {
		var missing []string
		for name := range cur.strategies {
			if tbl[name] == nil {
				missing = append(missing, name)
			}
		}
		sort.Strings(missing)
		return nil, fmt.Errorf("rebuilt strategy table lacks %s", strings.Join(missing, ", "))
	}
	if sv.Cache == nil {
		sv.Cache = solver.NewPlanCache(s.cfg.CacheEntries, s.cfg.CacheGranularity)
	}
	return &planState{solver: sv, strategies: tbl, snap: snap}, nil
}

func (s *Server) planState() *planState { return s.planning.Load() }

// degradedPlan reports whether a plan from st, about to be served, lags the
// live topology (events have been applied that st does not know about yet),
// and counts it when it does. /v2/plan passes and stream closes stamp their
// envelope with it.
func (s *Server) degradedPlan(st *planState) bool {
	if s.cfg.Topology == nil || s.cfg.Topology.Version() <= st.snap.Version {
		return false
	}
	s.met.degradedPlans.Add(1)
	return true
}

// cacheStats sums the current solver's cache counters with those of solvers
// retired by replans, so the hit/miss series stay monotonic across plan-
// state swaps. Entries reflects the current cache only.
func (s *Server) cacheStats() solver.CacheStats {
	cur := s.planState().solver.Cache.Metrics()
	s.retiredMu.Lock()
	r := s.retiredCache
	s.retiredMu.Unlock()
	cur.Hits += r.Hits
	cur.Misses += r.Misses
	cur.Dedups += r.Dedups
	cur.Evictions += r.Evictions
	return cur
}

// solverMetrics sums the current solver's counters with retired ones.
func (s *Server) solverMetrics() solver.SolverMetrics {
	cur := s.planState().solver.Metrics()
	s.retiredMu.Lock()
	r := s.retiredSolver
	s.retiredMu.Unlock()
	cur.Solves += r.Solves
	cur.Canceled += r.Canceled
	cur.Planned += r.Planned
	cur.Deduped += r.Deduped
	return cur
}

// retire folds a replaced plan state's counters into the retired totals.
func (s *Server) retire(old *planState) {
	cm := old.solver.Cache.Metrics()
	sm := old.solver.Metrics()
	s.retiredMu.Lock()
	s.retiredCache.Hits += cm.Hits
	s.retiredCache.Misses += cm.Misses
	s.retiredCache.Dedups += cm.Dedups
	s.retiredCache.Evictions += cm.Evictions
	s.retiredSolver.Solves += sm.Solves
	s.retiredSolver.Canceled += sm.Canceled
	s.retiredSolver.Planned += sm.Planned
	s.retiredSolver.Deduped += sm.Deduped
	s.retiredMu.Unlock()
}

func (s *Server) topologyMetrics() TopologyMetrics {
	tm := TopologyMetrics{
		Events:        s.met.topoEvents.Value(),
		Replans:       s.met.replans.Value(),
		DegradedPlans: s.met.degradedPlans.Value(),
	}
	if s.cfg.Topology == nil {
		return tm
	}
	snap := s.cfg.Topology.Snapshot()
	st := s.planState()
	tm.Elastic = true
	tm.Version = snap.Version
	tm.PlanVersion = st.snap.Version
	tm.Degraded = snap.Version > st.snap.Version
	tm.Nodes = len(snap.Nodes)
	tm.Down = snap.Down
	tm.Straggling = snap.Straggling
	return tm
}

// replanLoop wakes on topology events, debounces bursts, and replans. It
// exits when the Server is closed.
func (s *Server) replanLoop(ctx context.Context) {
	defer close(s.replanDone)
	notify := s.cfg.Topology.Notify()
	for {
		select {
		case <-ctx.Done():
			return
		case <-notify:
		}
		if d := s.cfg.ReplanDebounce; d > 0 {
			t := time.NewTimer(d)
			for wait := true; wait; {
				select {
				case <-ctx.Done():
					t.Stop()
					return
				case <-notify:
					// Another event: restart the quiet period.
					if !t.Stop() {
						<-t.C
					}
					t.Reset(d)
				case <-t.C:
					wait = false
				}
			}
		}
		s.replanOnce(ctx)
	}
}

// replanOnce rebuilds the plan state for the current topology snapshot and
// swaps it in. It solves nothing: the first request on the new state plans
// exactly as a daemon booted on that fleet would. On rebuild failure the old
// state keeps serving (flagged degraded) and the next event retries.
func (s *Server) replanOnce(ctx context.Context) {
	snap := s.cfg.Topology.Snapshot()
	cur := s.planState()
	if cluster.SameView(cur.snap, snap) {
		// The events canceled out (e.g. a node flapped down and up): keep
		// solver and plans, just acknowledge the version so responses stop
		// reading degraded.
		s.planning.Store(&planState{solver: cur.solver, strategies: cur.strategies, snap: snap})
		s.logger.Debug("replan: topology view unchanged", "version", snap.Version)
		return
	}
	start := time.Now()
	_, span := obs.Start(ctx, "server.replan")
	defer span.End()
	span.SetAttr("version", int(snap.Version))
	sv, fns, err := s.cfg.Rebuild(snap)
	var next *planState
	if err == nil {
		next, err = s.newPlanState(sv, fns, snap, cur)
	}
	if err != nil {
		span.SetError(err)
		s.logger.Warn("replan: rebuild failed; serving degraded plans",
			"version", snap.Version, "err", err)
		return
	}
	s.retire(cur)
	s.planning.Store(next)
	s.met.replans.Inc()
	elapsed := time.Since(start)
	s.met.replanSeconds.Observe(elapsed.Seconds())
	s.logger.Info("replanned",
		"version", snap.Version,
		"devices", snap.NumDevices(),
		"down", snap.Down,
		"straggling", snap.Straggling,
		"elapsed", elapsed)
}

// TopologyRequest is the body of POST /v2/topology: a batch of events
// applied atomically.
type TopologyRequest struct {
	Events []cluster.Event `json:"events"`
}

// TopologyResponse summarizes the elastic fleet (POST and GET /v2/topology).
type TopologyResponse struct {
	// Version is the fleet's topology version; PlanVersion the version the
	// serving plan state was built for; Degraded is set while they differ.
	Version     int64 `json:"version"`
	PlanVersion int64 `json:"plan_version"`
	Degraded    bool  `json:"degraded"`
	// Devices counts live devices; Nodes live nodes; Down and Straggling
	// the unhealthy physical nodes.
	Devices    int `json:"devices"`
	Nodes      int `json:"nodes"`
	Down       int `json:"down"`
	Straggling int `json:"straggling"`
	// Cluster is the live planning topology as a spec string.
	Cluster string `json:"cluster"`
	// Replans counts background replans completed so far.
	Replans int64 `json:"replans"`
}

func (s *Server) topologyResponse() TopologyResponse {
	snap := s.cfg.Topology.Snapshot()
	st := s.planState()
	return TopologyResponse{
		Version:     snap.Version,
		PlanVersion: st.snap.Version,
		Degraded:    snap.Version > st.snap.Version,
		Devices:     snap.NumDevices(),
		Nodes:       len(snap.Nodes),
		Down:        snap.Down,
		Straggling:  snap.Straggling,
		Cluster:     snap.Mixed.String(),
		Replans:     s.met.replans.Value(),
	}
}

// handleTopologyPost applies a batch of topology events (atomically: one
// invalid event rejects the whole batch with 400) and wakes the replan
// loop. Static daemons answer 501.
func (s *Server) handleTopologyPost(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Topology == nil {
		s.met.errors.Add(1)
		writeError(w, http.StatusNotImplemented, "elastic topology not configured")
		return
	}
	var req TopologyRequest
	if !decodeRequest(w, r, &req, &s.met) {
		return
	}
	if len(req.Events) == 0 {
		s.met.errors.Add(1)
		writeError(w, http.StatusBadRequest, "no topology events")
		return
	}
	ver, err := s.cfg.Topology.Apply(req.Events...)
	if err != nil {
		s.met.errors.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.met.topoEvents.Add(int64(len(req.Events)))
	s.logger.Info("topology events applied", "events", len(req.Events), "version", ver)
	w.Header().Set("Content-Type", "application/json")
	w.Write(encodeJSON(s.topologyResponse()))
}

// handleTopologyGet serves the live-fleet summary.
func (s *Server) handleTopologyGet(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Topology == nil {
		writeError(w, http.StatusNotImplemented, "elastic topology not configured")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(encodeJSON(s.topologyResponse()))
}
