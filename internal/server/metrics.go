package server

import (
	"time"

	"flexsp/internal/obs"
	"flexsp/internal/solver"
)

// MetricsResponse is the body of GET /v1/metrics: the daemon's request
// counters, queue state, solve-latency percentiles, and the shared plan
// cache and solver snapshots. The same counters back the Prometheus text
// exposition at GET /metrics; this JSON shape is pinned by a golden test and
// stays byte-compatible across releases.
type MetricsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`
	// Strategies lists the names POST /v2/plan accepts on this daemon.
	Strategies []string `json:"strategies"`

	// Requests counts every admitted solve/pipelined request; Solves counts
	// the solver passes actually executed, and Coalesced the requests that
	// joined another request's pass inside the batching window instead of
	// paying for their own. Rejected counts 429s (queue or tenant
	// overflow), Unavailable 503s while draining, and Errors failed
	// requests — decode/validation failures plus every member of a failed
	// solver pass — so errors/requests is a meaningful failure rate.
	Requests    int64 `json:"requests"`
	Solves      int64 `json:"solves"`
	Coalesced   int64 `json:"coalesced"`
	Rejected    int64 `json:"rejected"`
	Unavailable int64 `json:"unavailable"`
	Errors      int64 `json:"errors"`

	// QueueDepth is the number of requests currently admitted (queued in a
	// batching window or solving); QueueLimit is the admission bound.
	QueueDepth int64 `json:"queue_depth"`
	QueueLimit int   `json:"queue_limit"`

	// LatencyP50Millis / LatencyP99Millis estimate request-latency
	// percentiles (admission to response) from the
	// flexsp_request_latency_seconds histogram: bucket estimates over the
	// daemon's whole life, interpolated linearly inside the bucket as
	// Prometheus histogram_quantile does, not exact values over recent
	// requests.
	LatencyP50Millis float64 `json:"latency_p50_millis"`
	LatencyP99Millis float64 `json:"latency_p99_millis"`

	// Cache is the shared plan cache snapshot; CacheHitRate its plan-level
	// hits / (hits + misses).
	Cache        solver.CacheStats `json:"cache"`
	CacheHitRate float64           `json:"cache_hit_rate"`
	// Solver counts whole Solve calls and planner invocations.
	Solver solver.SolverMetrics `json:"solver"`
	// Stream summarizes streaming-session activity (POST /v2/stream/*).
	Stream StreamMetrics `json:"stream"`
	// Topology summarizes the elastic fleet and the replan loop (POST
	// /v2/topology); zero-valued with Elastic false on a static daemon.
	Topology TopologyMetrics `json:"topology"`
	// Calibration identifies the fitted cost-model coefficient set the
	// daemon plans with; version 0 means the analytic built-in profile.
	Calibration CalibrationMetrics `json:"calibration"`
}

// CalibrationInfo identifies the fitted cost-model coefficient set a daemon
// was configured with (Config.Calibration): the calibration file's version,
// source, fit timestamp, and display tag. The zero value means the analytic
// built-in profile.
type CalibrationInfo struct {
	// Version is the calibration file's monotonically bumped version (0 =
	// uncalibrated).
	Version int64
	// Source labels where the measurements came from (e.g. "sim-grid").
	Source string
	// FittedAtUnix is when the coefficients were fitted (Unix seconds; 0
	// when unstamped).
	FittedAtUnix int64
	// Tag is the file's display tag (calib.File.Tag), stamped into plan
	// envelopes and explanations.
	Tag string
}

// staleness is the seconds elapsed since the fit, 0 when unstamped.
func (c CalibrationInfo) staleness() float64 {
	if c.FittedAtUnix <= 0 {
		return 0
	}
	return time.Since(time.Unix(c.FittedAtUnix, 0)).Seconds()
}

// CalibrationMetrics is the /v1/metrics calibration section.
type CalibrationMetrics struct {
	// Version is the loaded calibration file's version; 0 means the daemon
	// plans on the analytic built-in coefficients.
	Version int64 `json:"version"`
	// Source labels the measurement provenance (omitted when uncalibrated).
	Source string `json:"source,omitempty"`
	// FittedAtUnix is the fit timestamp (Unix seconds; omitted when
	// unstamped).
	FittedAtUnix int64 `json:"fitted_at_unix,omitempty"`
	// StalenessSeconds is how long ago the coefficients were fitted.
	StalenessSeconds float64 `json:"staleness_seconds,omitempty"`
}

// TopologyMetrics is the /v1/metrics elastic-planning section.
type TopologyMetrics struct {
	// Elastic reports whether the daemon plans against a live topology.
	Elastic bool `json:"elastic"`
	// Version is the fleet's current topology version; PlanVersion the
	// version the serving plan state was built for. Degraded is set while
	// they differ (events arrived, replan not finished).
	Version     int64 `json:"version"`
	PlanVersion int64 `json:"plan_version"`
	Degraded    bool  `json:"degraded"`
	// Nodes counts live fleet nodes; Down and Straggling the unhealthy
	// physical nodes.
	Nodes      int `json:"nodes"`
	Down       int `json:"down"`
	Straggling int `json:"straggling"`
	// Events counts topology events accepted; Replans the background
	// replans completed, and DegradedPlans the plan responses served while
	// degraded. ColdReplans always reads 0, since a replan solves nothing;
	// it stays so the JSON shape holds.
	Events        int64 `json:"events"`
	Replans       int64 `json:"replans"`
	ColdReplans   int64 `json:"cold_replans"`
	DegradedPlans int64 `json:"degraded_plans"`
}

// StreamMetrics is the /v1/metrics streaming section: session lifecycle
// counts plus the background-solve counters of every ended session.
type StreamMetrics struct {
	// Opened counts sessions ever opened; Open is the number currently
	// registered; Expired counts sessions reaped by the idle timeout.
	Opened  int64 `json:"opened"`
	Open    int   `json:"open"`
	Expired int64 `json:"expired"`
	// Speculations counts background solves launched, Superseded those
	// canceled because their session grew past them, and Reused the closes
	// served from a background solve's result instead of a fresh solve.
	// Each session is counted once, when it is closed or expires.
	Speculations int64 `json:"speculations"`
	Superseded   int64 `json:"superseded"`
	Reused       int64 `json:"reused"`
}

// metrics aggregates the daemon's request counters and latency histograms,
// all registered in the server's obs.Registry, so /v1/metrics (JSON) and
// /metrics (Prometheus text) read the same instruments.
type metrics struct {
	requests    *obs.Counter
	solves      *obs.Counter
	coalesced   *obs.Counter
	rejected    *obs.Counter
	unavailable *obs.Counter
	errors      *obs.Counter

	streamOpened   *obs.Counter
	streamExpired  *obs.Counter
	specSolves     *obs.Counter
	specSuperseded *obs.Counter
	streamReused   *obs.Counter

	topoEvents    *obs.Counter
	replans       *obs.Counter
	degradedPlans *obs.Counter

	cacheFetchHits   *obs.Counter
	cacheFetchMisses *obs.Counter

	latency        *obs.Histogram
	planAfterClose *obs.Histogram
	replanSeconds  *obs.Histogram
}

// newMetrics registers the request counters and latency histogram.
func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		requests:    reg.Counter("flexsp_requests_total", "Admitted plan requests."),
		solves:      reg.Counter("flexsp_solves_total", "Solver passes executed."),
		coalesced:   reg.Counter("flexsp_coalesced_total", "Requests served by joining another request's batching pass."),
		rejected:    reg.Counter("flexsp_rejected_total", "Requests refused with 429 (queue or tenant overflow)."),
		unavailable: reg.Counter("flexsp_unavailable_total", "Requests refused with 503 while draining."),
		errors:      reg.Counter("flexsp_errors_total", "Failed requests (decode, validation, or solver failure)."),

		streamOpened:   reg.Counter("flexsp_stream_sessions_total", "Streaming sessions opened."),
		streamExpired:  reg.Counter("flexsp_stream_expired_total", "Streaming sessions reaped by the idle timeout."),
		specSolves:     reg.Counter("flexsp_speculative_solves_total", "Background solves launched by ended streaming sessions."),
		specSuperseded: reg.Counter("flexsp_speculative_superseded_total", "Background solves canceled because their session grew past them."),
		streamReused:   reg.Counter("flexsp_stream_reused_total", "Stream closes served from a background solve's result."),

		topoEvents:    reg.Counter("flexsp_topology_events_total", "Topology events accepted via POST /v2/topology."),
		replans:       reg.Counter("flexsp_replans_total", "Background replans completed after topology changes."),
		degradedPlans: reg.Counter("flexsp_degraded_plans_total", "Plan responses served while the plan state lagged the topology."),

		cacheFetchHits:   reg.Counter("flexsp_cache_fetch_hits_total", "GET /v2/cache/{sig} probes answered from the envelope cache."),
		cacheFetchMisses: reg.Counter("flexsp_cache_fetch_misses_total", "GET /v2/cache/{sig} probes that found no cached envelope."),

		latency:        reg.Histogram("flexsp_request_latency_seconds", "Request latency from admission to response.", obs.DefBuckets),
		planAfterClose: reg.Histogram("flexsp_plan_after_close_seconds", "Time from stream close to plan response.", obs.DefBuckets),
		replanSeconds:  reg.Histogram("flexsp_replan_seconds", "Wall time of one background replan (rebuild and swap).", obs.DefBuckets),
	}
}
