// Command flexsp-serve runs the FlexSP planner as a long-lived HTTP/JSON
// daemon — the disaggregated solver service of paper §5 as a standalone,
// multi-tenant component. Training jobs POST batch signatures and receive
// placed plans; concurrent identical requests coalesce into one solver pass
// and repeated signatures hit the shared plan cache.
//
//	flexsp-serve -addr :8080 -devices 64 -model GPT-7B
//
// Endpoints (versioned wire protocol):
//
//	POST /v2/plan             {"strategy","lengths","maxCtx","tenant"} →
//	                          tagged plan envelope; strategies: flexsp,
//	                          pipeline, deepspeed, batchada, megatron
//	POST /v2/stream/open      open a streaming session: sequences arrive
//	                          incrementally, and the batch is solved in the
//	                          background once "expect" have arrived (see
//	                          -stream-limit, -stream-timeout)
//	POST /v2/stream/{id}/append  add lengths to a session
//	POST /v2/stream/{id}/close   seal the batch → plan envelope + stream stats
//	POST /v2/topology         apply live-topology events (node loss,
//	                          stragglers, rejoin); the daemon rebuilds its
//	                          planners for the live fleet in the background
//	GET  /v2/topology         live fleet summary: versions, degraded flag
//	GET  /v1/metrics          cache/dedup counters, queue depth, p50/p99
//	GET  /metrics             the same counters as Prometheus text
//	GET  /v2/trace            recent request trace IDs
//	GET  /v2/trace/{id}       one request's Chrome-trace JSON
//	GET  /healthz             liveness (503 while draining)
//
// Admission control answers overflow with 429: -queue bounds admitted
// requests, -tenant-limit bounds each tenant label. -batch-window sets how
// long the first request for a signature waits for identical requests to
// coalesce with. On SIGTERM/SIGINT the daemon drains gracefully: /healthz
// flips to 503, new plan requests are refused, and in-flight solves finish
// (up to -drain-timeout) before exit.
//
// Elastic planning is on by default (-elastic=false pins the boot fleet):
// topology events posted to /v2/topology trigger a debounced background
// replan (-replan-debounce), and plans served before it lands carry
// "degraded": true.
//
// Observability: -log-level selects the structured-log threshold (requests
// log at debug with their request IDs), -trace-ring sizes the /v2/trace
// ring, and -pprof-addr serves net/http/pprof on a separate listener kept
// off the public planning port.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"flexsp"
	"flexsp/internal/cliutil"
	"flexsp/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8080", "listen address")
	devices := flag.Int("devices", 64, "GPU count (multiple of 8, or < 8 for one node)")
	clusterSpec := flag.String("cluster", "", "fleet spec, e.g. mixed:32xA100,32xH100 (overrides -devices)")
	modelName := flag.String("model", "GPT-7B", "model: GPT-7B, GPT-13B, GPT-30B")
	plannerName := flag.String("planner", "enum", "per-micro-batch planning algorithm: enum, milp, greedy")
	trials := flag.Int("trials", 0, "Alg. 1 micro-batch-count trials (0 = default)")
	queue := flag.Int("queue", 64, "max admitted requests before 429")
	tenantLimit := flag.Int("tenant-limit", 16, "max concurrent requests per tenant before 429")
	batchWindow := flag.Duration("batch-window", 2*time.Millisecond, "coalescing window for identical requests (negative disables)")
	cacheEntries := flag.Int("cache", 4096, "plan cache entries")
	cacheGranularity := flag.Int("granularity", 256, "plan cache rounding granularity, tokens")
	streamLimit := flag.Int("stream-limit", 64, "max concurrently open streaming sessions before 429")
	streamTimeout := flag.Duration("stream-timeout", time.Minute, "reap streaming sessions idle this long (negative disables)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight solves on shutdown")
	logLevel := flag.String("log-level", "info", "structured-log threshold: debug, info, warn, error")
	traceRing := flag.Int("trace-ring", 64, "completed request traces kept for GET /v2/trace/{id} (negative disables)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables)")
	elastic := flag.Bool("elastic", true, "accept live-topology events on POST /v2/topology and replan in the background")
	replanDebounce := flag.Duration("replan-debounce", 100*time.Millisecond, "wait this long after a topology event for the burst to settle before replanning (negative replans immediately)")
	calibration := flag.String("calibration", "", "load fitted cost-model coefficients from this calibration file (see flexsp-profile fit)")
	flag.Parse()

	// Limits where zero can only be a typo fail fast with a clear error
	// instead of booting a daemon that refuses every request (a
	// zero-session stream limit) or never reaps abandoned sessions (a zero
	// stream timeout). Negative keeps its documented meaning: disabled.
	if *streamLimit <= 0 {
		fmt.Fprintf(os.Stderr, "flexsp-serve: invalid -stream-limit %d: must be positive\n", *streamLimit)
		return 2
	}
	if *streamTimeout == 0 {
		fmt.Fprintln(os.Stderr, "flexsp-serve: invalid -stream-timeout 0: must be positive (or negative to disable the idle reaper)")
		return 2
	}
	if *traceRing == 0 {
		fmt.Fprintln(os.Stderr, "flexsp-serve: invalid -trace-ring 0: must be positive (or negative to disable tracing)")
		return 2
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintln(os.Stderr, "flexsp-serve: invalid -log-level:", err)
		return 2
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	plAlgo, err := cliutil.ParsePlanner(*plannerName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexsp-serve: invalid -planner:", err)
		return 2
	}
	model, err := cliutil.ModelByName(*modelName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexsp-serve: invalid -model:", err)
		return 2
	}
	if err := cliutil.ValidateFleet(*devices, *clusterSpec); err != nil {
		fmt.Fprintln(os.Stderr, "flexsp-serve:", err)
		return 2
	}

	sys, err := flexsp.NewSystem(flexsp.Config{
		Devices:     *devices,
		Cluster:     *clusterSpec,
		Model:       model,
		Planner:     plAlgo,
		Trials:      *trials,
		Calibration: *calibration,
		Serve: flexsp.ServeConfig{
			QueueLimit:       *queue,
			TenantLimit:      *tenantLimit,
			BatchWindow:      *batchWindow,
			CacheEntries:     *cacheEntries,
			CacheGranularity: *cacheGranularity,
			TraceEntries:     *traceRing,
			StreamLimit:      *streamLimit,
			StreamTimeout:    *streamTimeout,
			Elastic:          *elastic,
			ReplanDebounce:   *replanDebounce,
			Logger:           logger,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexsp-serve:", err)
		return 2
	}
	srv, err := sys.NewServer()
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexsp-serve:", err)
		return 2
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	if *pprofAddr != "" {
		// pprof runs on its own listener so profiling stays reachable under
		// load and is never exposed on the public planning port.
		pprofSrv := &http.Server{Addr: *pprofAddr, Handler: obs.PprofMux()}
		go func() {
			log.Printf("flexsp-serve: pprof on %s", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("flexsp-serve: pprof: %v", err)
			}
		}()
		defer pprofSrv.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("flexsp-serve: listening on %s (%d devices%s, model %s, planner %s%s, strategies %s)",
			*addr, sys.Topo.NumDevices(), clusterNote(*clusterSpec), model.Name, plAlgo,
			calibrationNote(sys.Calibration()), strings.Join(srv.StrategyNames(), ","))
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Printf("flexsp-serve: %v", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: stop advertising healthy, refuse new plan requests,
	// let http.Server.Shutdown wait for in-flight handlers (and their
	// solves) to finish.
	log.Printf("flexsp-serve: draining (timeout %s)", *drainTimeout)
	srv.Drain()
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("flexsp-serve: shutdown: %v", err)
		srv.Close()
		return 1
	}
	// Stop the background replan loop and stream reaper after the listener
	// is gone so no handler observes a half-closed server.
	srv.Close()
	log.Print("flexsp-serve: drained")
	return 0
}

func clusterNote(spec string) string {
	if spec == "" {
		return ""
	}
	return ", cluster " + spec
}

func calibrationNote(tag string) string {
	if tag == "" {
		return ""
	}
	return ", calibration " + tag
}
