// Package fleet shards flexsp-serve horizontally: a coordinator/routing
// layer that fronts N planning replicas and makes them behave like one
// daemon with N times the capacity — FlexSP's §5 disaggregated solving taken
// to its production conclusion, where planning must scale out and re-route
// rather than run as a single hot process.
//
// The Router is an http.Handler speaking the same wire protocol as a lone
// daemon, so clients (flexsp.Client, curl) need no changes:
//
//	POST /v2/plan             routed by consistent hash of the batch
//	                          signature to the replica whose plan cache is
//	                          already warm for it
//	POST /v2/topology         fan-out: the event batch reaches every replica
//	GET  /v2/topology         per-replica live-fleet summaries
//	GET  /v2/fleet            routing table: members, health states, version
//	POST /v2/fleet/join       add (or re-add) a replica at runtime
//	POST /v2/fleet/leave      remove a replica
//	GET  /v1/metrics          router counters as JSON
//	GET  /metrics             the same as Prometheus text
//	GET  /healthz             200 while at least one replica is routable
//
// Three mechanisms make the fleet hold together:
//
// Consistent-hash routing. Requests route by rendezvous (highest-random-
// weight) hashing of the exact batch signature (solver.Signature): identical
// workloads always land on the same replica, whose sharded LRU already holds
// the plan, so the fleet's aggregate cache is the union of the replicas'
// caches rather than N copies of the hottest keys. Rendezvous hashing gives
// minimal remapping — a join or leave moves only the ~K/n keys whose home
// changed — and is a pure function of (signature, replica names), identical
// across router restarts. A bounded-load check spills a key to its next
// -ranked replica while its home has too many requests in flight.
//
// Two-tier plan cache. Tier one is the home replica's own plan cache. When
// a rebalance moves a signature to a replica with a cold cache, the router
// first probes the signature's previous home with GET /v2/cache/{sig}; a hit
// returns the previously served envelope byte-for-byte, avoiding the cold
// solve entirely. Misses fall through to a normal routed solve.
//
// Health propagation. A background prober hits every replica's /healthz on
// an interval; request-path failures feed the same state machine. Replicas
// walk healthy → suspect (first failure) → down (DownAfter consecutive
// failures), drained when they answer 503 (demoting to down if the drain
// turns into death and probes start failing outright), and back to healthy
// on the first successful probe. Suspect replicas still route (with failover
// standing by); down and drained ones do not — which means only a probe can
// bring them back, so with the prober disabled they stay out of rotation
// until an explicit re-join. Every state change bumps the routing-table
// version.
package fleet

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flexsp/internal/obs"
)

// State is a replica's health in the routing table.
type State int

// The health state machine: healthy replicas route; suspect replicas (one
// recent failure) still route but with failover standing by; down replicas
// (DownAfter consecutive failures — from suspect, or from drained when a
// draining replica dies and probes start failing) and drained replicas
// (answered 503, e.g. mid graceful shutdown) receive no traffic until a
// probe succeeds again.
const (
	StateHealthy State = iota
	StateSuspect
	StateDown
	StateDrained
)

// String names the state for wire summaries and logs.
func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateSuspect:
		return "suspect"
	case StateDown:
		return "down"
	case StateDrained:
		return "drained"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// routable reports whether the state receives traffic.
func (s State) routable() bool { return s == StateHealthy || s == StateSuspect }

// Replica names one flexsp-serve instance behind the router.
type Replica struct {
	// Name is the stable routing identity: the rendezvous hash mixes it
	// with each batch signature, so a replica that restarts under the same
	// name reclaims exactly its old key range.
	Name string `json:"name"`
	// URL is the daemon root, e.g. "http://10.0.0.3:8080".
	URL string `json:"url"`
}

// Config configures a Router.
type Config struct {
	// Replicas is the initial membership; join/leave can change it later.
	Replicas []Replica
	// ProbeInterval is how often the background prober checks every
	// replica's /healthz. Zero takes the 250ms default; negative disables
	// the prober. Request-path failures still demote replicas without it,
	// but down and drained replicas receive no traffic — only a successful
	// probe promotes them back — so with the prober disabled they stay out
	// of rotation until POST /v2/fleet/join re-adds them.
	ProbeInterval time.Duration
	// DownAfter is how many consecutive failures demote a suspect replica
	// to down (default 3; the first failure always demotes healthy to
	// suspect).
	DownAfter int
	// MaxAttempts bounds how many replicas one request tries before the
	// router gives up (default 3, capped by the routable count): it answers
	// 429 when a replica it reached was full, else 502. Plan requests are
	// pure solves, so retrying them on another replica is safe.
	MaxAttempts int
	// MaxInflight is the bounded-load threshold: while a key's home replica
	// has this many router-proxied requests in flight, the key spills to
	// its next-ranked replica. Zero disables the bound.
	MaxInflight int
	// HTTPClient overrides http.DefaultClient for probes and proxied
	// requests.
	HTTPClient *http.Client
	// Logger receives routing and health logs (state changes at Info,
	// requests at Debug). Nil discards.
	Logger *slog.Logger
}

// member is one replica's live routing entry. name and url are immutable (a
// rejoin under the same name installs a fresh member); st is written only
// under Router.mu so transitions stay atomic, but read lock-free on the
// request path.
type member struct {
	name, url string
	st        atomic.Int32 // State
	fails     int          // consecutive failures feeding the down demotion
	inflight  atomic.Int64 // router-proxied requests currently on this replica
}

// state reads the member's health without the router lock.
func (m *member) state() State { return State(m.st.Load()) }

// Router is the fleet coordinator. It implements http.Handler; wrap it in an
// http.Server to serve it. Build with New, stop the prober with Close.
type Router struct {
	cfg    Config
	mux    *http.ServeMux
	client *http.Client
	logger *slog.Logger

	mu      sync.Mutex
	members map[string]*member
	version atomic.Int64 // bumps on every membership or state change

	homeMu    sync.Mutex
	lastHome  map[uint64]string // signature key → replica that last served it
	homeLimit int

	reg    *obs.Registry
	met    routerMetrics
	gauged map[string]bool // per-replica gauges already registered
	traces *obs.TraceRing

	probeCancel context.CancelFunc
	probeDone   chan struct{}
	closeOnce   sync.Once
}

// New builds a Router over the configured replicas and starts the health
// prober. Replicas must have distinct non-empty names and URLs.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: Config.Replicas is empty")
	}
	switch {
	case cfg.ProbeInterval == 0:
		cfg.ProbeInterval = 250 * time.Millisecond
	case cfg.ProbeInterval < 0:
		cfg.ProbeInterval = 0
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 3
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	client := cfg.HTTPClient
	if client == nil {
		client = http.DefaultClient
	}
	rt := &Router{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		client:    client,
		logger:    logger,
		members:   make(map[string]*member),
		lastHome:  make(map[uint64]string),
		homeLimit: 8192,
		reg:       obs.NewRegistry(),
		gauged:    make(map[string]bool),
		traces:    obs.NewTraceRing(64),
	}
	rt.met = newRouterMetrics(rt.reg)
	rt.registerGauges()
	for _, r := range cfg.Replicas {
		if err := rt.join(r); err != nil {
			return nil, err
		}
	}
	rt.mux.HandleFunc("POST /v2/plan", rt.handlePlanV2)
	rt.mux.HandleFunc("POST /v2/topology", rt.handleTopology(http.MethodPost))
	rt.mux.HandleFunc("GET /v2/topology", rt.handleTopology(http.MethodGet))
	rt.mux.HandleFunc("GET /v2/fleet", rt.handleFleet)
	rt.mux.HandleFunc("POST /v2/fleet/join", rt.handleJoin)
	rt.mux.HandleFunc("POST /v2/fleet/leave", rt.handleLeave)
	rt.mux.HandleFunc("GET /v2/trace", rt.handleTraceList)
	rt.mux.HandleFunc("GET /v2/trace/{id}", rt.handleTraceGet)
	rt.mux.HandleFunc("GET /v1/metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /metrics", rt.handlePrometheus)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealth)
	if cfg.ProbeInterval > 0 {
		pctx, cancel := context.WithCancel(context.Background())
		rt.probeCancel = cancel
		rt.probeDone = make(chan struct{})
		go rt.probeLoop(pctx)
	}
	return rt, nil
}

// Close stops the background health prober. It is idempotent; the router
// keeps serving with its last known health states.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() {
		if rt.probeCancel != nil {
			rt.probeCancel()
			<-rt.probeDone
		}
	})
}

// ServeHTTP dispatches to the router's routes.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// Version is the routing-table version: it bumps on every membership change
// and health transition, so two calls returning the same value bracket a
// stable table.
func (rt *Router) Version() int64 { return rt.version.Load() }

// join adds or re-adds a replica. Re-joining an existing name replaces its
// URL and resets it to healthy — the restart-under-the-same-name path that
// reclaims the old key range.
func (rt *Router) join(r Replica) error {
	if r.Name == "" || r.URL == "" {
		return fmt.Errorf("fleet: replica needs both name and url (got %q, %q)", r.Name, r.URL)
	}
	// A rejoin installs a fresh member rather than mutating the old one:
	// requests still holding the previous entry finish (or fail over)
	// against the old URL, new traffic sees the new URL and a clean healthy
	// state, and neither needs a lock to read either.
	rt.mu.Lock()
	rt.members[r.Name] = &member{name: r.Name, url: r.URL}
	rt.mu.Unlock()
	rt.version.Add(1)
	rt.registerReplicaGauge(r.Name)
	rt.logger.Info("fleet: replica joined", "name", r.Name, "url", r.URL)
	return nil
}

// leave removes a replica from the table; its per-replica gauge keeps
// reporting (as down) so dashboards see the departure rather than a gap.
func (rt *Router) leave(name string) error {
	rt.mu.Lock()
	_, ok := rt.members[name]
	if ok {
		delete(rt.members, name)
	}
	rt.mu.Unlock()
	if !ok {
		return fmt.Errorf("fleet: unknown replica %q", name)
	}
	rt.version.Add(1)
	rt.logger.Info("fleet: replica left", "name", name)
	return nil
}

// routable snapshots the names of replicas currently receiving traffic,
// sorted for determinism.
func (rt *Router) routable() []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	names := make([]string, 0, len(rt.members))
	for name, m := range rt.members {
		if m.state().routable() {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// lookup returns the live member for name, nil if it left.
func (rt *Router) lookup(name string) *member {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.members[name]
}

// setState transitions a member, bumping the routing version when the state
// actually changes.
func (rt *Router) setState(name string, st State, resetFails bool) {
	rt.mu.Lock()
	m, ok := rt.members[name]
	changed := ok && m.state() != st
	if ok {
		if changed {
			m.st.Store(int32(st))
		}
		if resetFails {
			m.fails = 0
		}
	}
	rt.mu.Unlock()
	if changed {
		rt.version.Add(1)
		rt.logger.Info("fleet: replica state", "name", name, "state", st.String())
	}
}

// markFailed records one failed probe or proxied request: healthy demotes to
// suspect immediately; suspect — and drained, once the 503s give way to
// probes failing outright because the replica died mid-drain — demotes to
// down after DownAfter consecutive failures, so dashboards see "down" rather
// than a forever-"drained" corpse.
func (rt *Router) markFailed(name string) {
	rt.mu.Lock()
	m, ok := rt.members[name]
	var to State
	changed := false
	if ok {
		m.fails++
		switch st := m.state(); {
		case st == StateHealthy:
			to, changed = StateSuspect, true
		case (st == StateSuspect || st == StateDrained) && m.fails >= rt.cfg.DownAfter:
			to, changed = StateDown, true
		}
		if changed {
			m.st.Store(int32(to))
		}
	}
	rt.mu.Unlock()
	if changed {
		rt.version.Add(1)
		rt.logger.Info("fleet: replica state", "name", name, "state", to.String())
	}
}

// probeLoop drives the health state machine from /healthz on a fixed
// interval until the router closes.
func (rt *Router) probeLoop(ctx context.Context) {
	defer close(rt.probeDone)
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		rt.probeAll(ctx)
	}
}

// probeAll checks every member's /healthz concurrently.
func (rt *Router) probeAll(ctx context.Context) {
	rt.mu.Lock()
	targets := make([]Replica, 0, len(rt.members))
	for _, m := range rt.members {
		targets = append(targets, Replica{Name: m.name, URL: m.url})
	}
	rt.mu.Unlock()
	var wg sync.WaitGroup
	for _, tgt := range targets {
		wg.Add(1)
		go func(tgt Replica) {
			defer wg.Done()
			rt.probeOne(ctx, tgt)
		}(tgt)
	}
	wg.Wait()
}

// probeOne applies one /healthz result to the state machine: 200 restores
// healthy, 503 means drained, anything else is a failure.
func (rt *Router) probeOne(ctx context.Context, tgt Replica) {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout(rt.cfg.ProbeInterval))
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, tgt.URL+"/healthz", nil)
	if err != nil {
		rt.markFailed(tgt.Name)
		return
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		// Close canceling the probe loop is not a replica failure; only a
		// timeout (pctx) or transport error while the router is live counts.
		if ctx.Err() != nil {
			return
		}
		rt.met.probeFailures.Inc()
		rt.markFailed(tgt.Name)
		return
	}
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		rt.setState(tgt.Name, StateHealthy, true)
	case resp.StatusCode == http.StatusServiceUnavailable:
		rt.setState(tgt.Name, StateDrained, true)
	default:
		rt.met.probeFailures.Inc()
		rt.markFailed(tgt.Name)
	}
}

// probeTimeout bounds one probe at the interval (so probes never pile up)
// with a 2s ceiling.
func probeTimeout(interval time.Duration) time.Duration {
	if interval <= 0 || interval > 2*time.Second {
		return 2 * time.Second
	}
	return interval
}

// recordHome remembers which replica served a signature, for the peer-fetch
// tier. The map is bounded; overflow drops arbitrary entries (a lost entry
// only costs one peer-fetch opportunity).
func (rt *Router) recordHome(key uint64, name string) {
	rt.homeMu.Lock()
	if len(rt.lastHome) >= rt.homeLimit {
		for k := range rt.lastHome {
			delete(rt.lastHome, k)
			if len(rt.lastHome) < rt.homeLimit/2 {
				break
			}
		}
	}
	rt.lastHome[key] = name
	rt.homeMu.Unlock()
}

// previousHome returns the replica that last served the signature, "" if
// unknown.
func (rt *Router) previousHome(key uint64) string {
	rt.homeMu.Lock()
	defer rt.homeMu.Unlock()
	return rt.lastHome[key]
}
