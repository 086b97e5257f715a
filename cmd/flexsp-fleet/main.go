// Command flexsp-fleet runs the fleet coordinator: a router that fronts N
// flexsp-serve replicas and makes them behave like one planning daemon with
// N times the capacity. Requests route by consistent (rendezvous) hashing of
// the batch signature, so identical workloads always land on the replica
// whose plan cache is already warm; a rebalanced signature is first probed
// on its previous home's envelope cache (GET /v2/cache/{sig}) before any
// cold solve.
//
//	flexsp-fleet -addr :8090 \
//	  -replica a=http://127.0.0.1:8081 \
//	  -replica b=http://127.0.0.1:8082 \
//	  -replica c=http://127.0.0.1:8083
//
// Endpoints (the plan wire protocol is the daemon's own, so flexsp clients
// point at the router unchanged):
//
//	POST /v2/plan             routed by batch signature, with failover
//	POST /v2/topology         fan-out: the event batch reaches every replica
//	GET  /v2/topology         per-replica live-fleet summaries
//	GET  /v2/fleet            routing table: members, health, version
//	POST /v2/fleet/join       add (or re-add) a replica at runtime
//	POST /v2/fleet/leave      remove a replica
//	GET  /v2/trace            recent fleet.route trace IDs
//	GET  /v2/trace/{id}       one routed request's Chrome-trace JSON
//	GET  /v1/metrics          router counters as JSON
//	GET  /metrics             the same as Prometheus text
//	GET  /healthz             200 while at least one replica is routable
//
// A background prober drives each replica's health state machine from its
// /healthz (-probe-interval, -down-after): healthy → suspect on the first
// failure, suspect → down after consecutive failures, drained on 503, back
// to healthy on the first good probe. Suspect replicas still route (with
// failover standing by); down and drained ones do not.
//
// -max-attempts bounds how many replicas one request tries before giving up
// (429 when a reached replica was full, else 502);
// -max-inflight spills a saturated home replica's keys to their next-ranked
// replica.
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

	"flexsp/internal/fleet"
)

// replicaFlags collects repeated -replica name=url flags.
type replicaFlags []fleet.Replica

func (f *replicaFlags) String() string {
	parts := make([]string, 0, len(*f))
	for _, r := range *f {
		parts = append(parts, r.Name+"="+r.URL)
	}
	return strings.Join(parts, ",")
}

func (f *replicaFlags) Set(v string) error {
	name, u, ok := strings.Cut(v, "=")
	if !ok || name == "" || u == "" {
		return fmt.Errorf("want name=url, got %q", v)
	}
	*f = append(*f, fleet.Replica{Name: name, URL: strings.TrimRight(u, "/")})
	return nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var replicas replicaFlags
	addr := flag.String("addr", ":8090", "listen address")
	flag.Var(&replicas, "replica", "replica as name=url (repeatable), e.g. -replica a=http://127.0.0.1:8081")
	probeInterval := flag.Duration("probe-interval", 250*time.Millisecond, "health-probe period (negative disables the prober)")
	downAfter := flag.Int("down-after", 3, "consecutive probe failures before a suspect replica is down")
	maxAttempts := flag.Int("max-attempts", 3, "replicas one request tries before giving up (429 if a reached replica was full, else 502)")
	maxInflight := flag.Int("max-inflight", 0, "bounded-load threshold per replica (0 disables)")
	logLevel := flag.String("log-level", "info", "structured-log threshold: debug, info, warn, error")
	flag.Parse()

	if len(replicas) == 0 {
		fmt.Fprintln(os.Stderr, "flexsp-fleet: at least one -replica name=url is required")
		return 2
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintln(os.Stderr, "flexsp-fleet: invalid -log-level:", err)
		return 2
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	rt, err := fleet.New(fleet.Config{
		Replicas:      replicas,
		ProbeInterval: *probeInterval,
		DownAfter:     *downAfter,
		MaxAttempts:   *maxAttempts,
		MaxInflight:   *maxInflight,
		Logger:        logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexsp-fleet:", err)
		return 2
	}
	defer rt.Close()

	httpSrv := &http.Server{Addr: *addr, Handler: rt}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("flexsp-fleet: routing on %s for %d replicas (%s)", *addr, len(replicas), replicas.String())
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Printf("flexsp-fleet: %v", err)
		return 1
	case <-ctx.Done():
	}

	log.Print("flexsp-fleet: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("flexsp-fleet: shutdown: %v", err)
		return 1
	}
	return 0
}
