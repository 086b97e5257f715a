package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"flexsp/internal/obs"
	"flexsp/internal/server"
	"flexsp/internal/solver"
)

// planPath is the daemon path the router proxies by batch signature.
const planPath = "/v2/plan"

// maxBody caps proxied request bodies, matching the daemon's own limit.
const maxBody = 32 << 20

// writeError answers an error in the daemon's wire shape, so fleet clients
// decode router and replica errors identically.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(encodeJSON(server.ErrorResponse{Error: msg}))
}

// encodeJSON marshals v with the daemon's trailing-newline convention.
func encodeJSON(v any) []byte {
	buf, err := json.Marshal(v)
	if err != nil {
		panic("fleet: encoding response: " + err.Error())
	}
	return append(buf, '\n')
}

// handlePlanV2 routes POST /v2/plan: decode enough of the body to compute the
// batch signature, try the peer-cache tier for rebalanced keys, then proxy to
// the signature's rendezvous home with bounded-load spill and failover.
func (rt *Router) handlePlanV2(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var req server.PlanRequest
	if err := json.Unmarshal(body, &req); err != nil {
		// Malformed bodies still route (by a hash of the raw bytes) so the
		// replica's decoder answers the authentic 400.
		rt.route(w, r, body, rawKey(body), routeInfo{})
		return
	}
	sig, sigKey := solver.Signature(req.Lengths)
	rt.route(w, r, body, sigKey, routeInfo{plan: &req, sig: sig})
}

// readBody slurps a bounded request body.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		rt.met.errors.Inc()
		writeError(w, http.StatusBadRequest, "reading request: "+err.Error())
		return nil, false
	}
	return body, true
}

// rawKey hashes opaque bytes for routing when no signature is available.
func rawKey(body []byte) uint64 {
	h := fnv.New64a()
	h.Write(body)
	return h.Sum64()
}

// routeInfo carries the decoded plan coordinates when the request is a
// well-formed /v2/plan body — the inputs the peer-cache tier needs.
type routeInfo struct {
	plan *server.PlanRequest
	sig  []int32
}

// route serves one request end to end: rank the routable replicas by
// rendezvous score, probe the peer-cache tier when the key's home moved,
// then proxy down the rank with bounded-load spill and failover. Each
// request opens a fleet.route trace that lands in the router's ring.
func (rt *Router) route(w http.ResponseWriter, r *http.Request, body []byte, key uint64, info routeInfo) {
	rt.met.requests.Inc()
	start := time.Now()
	defer func() { rt.met.routeSeconds.Observe(time.Since(start).Seconds()) }()

	ctx, tr := obs.NewTrace(r.Context(), "fleet.route")
	root := tr.Root()
	root.SetAttr("path", planPath)
	root.SetAttr("sig", fmt.Sprintf("%016x", key))
	w.Header().Set("X-Flexsp-Trace-Id", tr.ID())
	defer func() {
		tr.End()
		rt.traces.Add(tr)
	}()

	names := Rank(key, rt.routable())
	if len(names) == 0 {
		rt.met.errors.Inc()
		root.SetAttr("status", http.StatusServiceUnavailable)
		writeError(w, http.StatusServiceUnavailable, "fleet: no routable replicas")
		return
	}
	root.SetAttr("home", names[0])

	// Tier two: the key's previous home may still hold the envelope this
	// request would otherwise cold-solve on its new home.
	if info.plan != nil {
		if prev := rt.previousHome(key); prev != "" && prev != names[0] {
			if m := rt.lookup(prev); m != nil && m.state().routable() {
				_, span := obs.Start(ctx, "fleet.peer_fetch")
				span.SetAttr("peer", prev)
				envelope, hit := rt.peerFetch(ctx, m.url, key, *info.plan, info.sig)
				span.SetAttr("hit", hit)
				span.End()
				if hit {
					rt.met.peerHits.Inc()
					root.SetAttr("peer_hit", prev)
					root.SetAttr("status", http.StatusOK)
					w.Header().Set("Content-Type", "application/json")
					w.Write(envelope)
					return
				}
				rt.met.peerMisses.Inc()
			}
		}
	}

	// Resolve the rank to live members, then let the bounded-load check
	// sink saturated replicas below unsaturated ones (a stable partition,
	// so rank order still breaks ties): a key's home serves it unless the
	// home is full, and a fully saturated fleet is still tried in rank
	// order rather than refused.
	cands := make([]*member, 0, len(names))
	for _, name := range names {
		if m := rt.lookup(name); m != nil && m.state().routable() {
			cands = append(cands, m)
		}
	}
	if rt.cfg.MaxInflight > 0 && len(cands) > 1 {
		free := make([]*member, 0, len(cands))
		var busy []*member
		for _, m := range cands {
			if m.inflight.Load() >= int64(rt.cfg.MaxInflight) {
				busy = append(busy, m)
			} else {
				free = append(free, m)
			}
		}
		if len(free) > 0 && len(busy) > 0 && busy[0] == cands[0] {
			rt.met.spills.Inc()
			root.SetAttr("spilled", true)
		}
		cands = append(free, busy...)
	}
	attempts := rt.cfg.MaxAttempts
	if attempts > len(cands) {
		attempts = len(cands)
	}
	full := false
	for i := 0; i < attempts; i++ {
		m := cands[i]
		last := i == attempts-1
		_, span := obs.Start(ctx, "fleet.proxy")
		span.SetAttr("replica", m.name)
		done, status := rt.proxyOnce(ctx, w, r, m, body, key, info, names[0], last)
		span.SetAttr("status", status)
		span.End()
		if done {
			root.SetAttr("replica", m.name)
			root.SetAttr("status", status)
			return
		}
		// A 429 reroute is load spilling; anything else is a failover away
		// from an unhealthy replica.
		if status == http.StatusTooManyRequests {
			rt.met.spills.Inc()
			full = true
		} else {
			rt.met.failovers.Inc()
		}
	}
	if full {
		// Every replica that answered refused admission and the rest are
		// unreachable: the fleet is full, not broken, so the client gets
		// the retryable 429 a lone full daemon would send.
		root.SetAttr("status", http.StatusTooManyRequests)
		writeError(w, http.StatusTooManyRequests, "fleet: every reachable replica is full")
		return
	}
	rt.met.errors.Inc()
	root.SetAttr("status", http.StatusBadGateway)
	writeError(w, http.StatusBadGateway, "fleet: no replica could answer")
}

// proxyOnce sends the request to one replica. It returns done=true when a
// response was relayed to the client (or the client is gone and there is
// nothing left to do); done=false asks the caller to fail over. Transport
// errors — except those caused by the client disconnecting — and (non-final)
// 5xx answers feed the health state
// machine; a 2xx restores the replica to healthy and — only when the
// serving replica is the key's current rendezvous home — records the key's
// home for the peer-fetch tier. Spilled and failed-over requests are
// deliberately not recorded: the peer tier exists for rebalances (the home
// itself moved), not for transient load detours, and recording detours
// would route steady-state traffic through the envelope cache.
func (rt *Router) proxyOnce(ctx context.Context, w http.ResponseWriter, r *http.Request, m *member, body []byte, key uint64, info routeInfo, homeName string, last bool) (bool, int) {
	m.inflight.Add(1)
	defer m.inflight.Add(-1)

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.url+planPath, bytes.NewReader(body))
	if err != nil {
		return false, 0
	}
	req.Header.Set("Content-Type", "application/json")
	if rid := r.Header.Get("X-Flexsp-Request-Id"); rid != "" {
		req.Header.Set("X-Flexsp-Request-Id", rid)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		// A transport error after the client abandoned the request (proxied
		// contexts derive from r.Context()) says nothing about the replica:
		// marking it would let a disconnect-happy client walk a healthy
		// replica through suspect to down. The request is finished either
		// way — nobody is left to relay a failover answer to.
		if r.Context().Err() != nil {
			return true, 0
		}
		rt.markFailed(m.name)
		return false, 0
	}
	defer resp.Body.Close()

	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		// The replica is draining; take it out of rotation and fail over
		// (relay only when this was the last candidate).
		rt.setState(m.name, StateDrained, true)
		if !last {
			io.Copy(io.Discard, resp.Body)
			return false, resp.StatusCode
		}
	case resp.StatusCode >= 500:
		rt.markFailed(m.name)
		if !last {
			io.Copy(io.Discard, resp.Body)
			return false, resp.StatusCode
		}
	case resp.StatusCode == http.StatusTooManyRequests:
		// Admission refusal, not ill health: the replica is full. Plan
		// requests are pure solves, so reroute to the next rank instead of
		// bouncing the client into backoff; the client sees 429 only when
		// every candidate is full.
		if !last {
			io.Copy(io.Discard, resp.Body)
			return false, resp.StatusCode
		}
	case resp.StatusCode/100 == 2:
		rt.setState(m.name, StateHealthy, true)
		if info.plan != nil && m.name == homeName {
			rt.recordHome(key, m.name)
		}
	}

	for _, h := range []string{"Content-Type", "X-Flexsp-Request-Id", "X-Flexsp-Trace-Id"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true, resp.StatusCode
}

// peerFetch probes GET /v2/cache/{sig} on the key's previous home. A hit
// returns the cached /v2/plan body with the daemon's trailing newline
// restored, after ruling out a 64-bit collision against the exact signature.
func (rt *Router) peerFetch(ctx context.Context, baseURL string, key uint64, req server.PlanRequest, sig []int32) ([]byte, bool) {
	q := url.Values{}
	if req.Strategy != "" {
		// The daemon lowercases the strategy before solving and storing, so
		// probe under the normalized name or a "FlexSP" client never hits.
		q.Set("strategy", strings.ToLower(req.Strategy))
	}
	if req.MaxCtx != 0 {
		q.Set("maxCtx", fmt.Sprintf("%d", req.MaxCtx))
	}
	if req.Explain {
		q.Set("explain", "true")
	}
	target := fmt.Sprintf("%s/v2/cache/%016x", baseURL, key)
	if enc := q.Encode(); enc != "" {
		target += "?" + enc
	}
	fctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	hreq, err := http.NewRequestWithContext(fctx, http.MethodGet, target, nil)
	if err != nil {
		return nil, false
	}
	resp, err := rt.client.Do(hreq)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, false
	}
	var fetched server.CacheFetchResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBody)).Decode(&fetched); err != nil {
		return nil, false
	}
	if !solver.SigsEqual(fetched.Sig, sig) {
		return nil, false
	}
	return append([]byte(fetched.Envelope), '\n'), true
}

// FanoutResult is one replica's slice of a fleet-wide fan-out response.
type FanoutResult struct {
	Name   string          `json:"name"`
	Status int             `json:"status,omitempty"`
	Error  string          `json:"error,omitempty"`
	Body   json.RawMessage `json:"body,omitempty"`
}

// FanoutResponse is the body of GET and POST /v2/topology on the router:
// per-replica results, sorted by name, plus the routing-table version and
// how many replicas failed.
type FanoutResponse struct {
	Version  int64          `json:"version"`
	Failed   int            `json:"failed"`
	Replicas []FanoutResult `json:"replicas"`
}

// handleTopology fans /v2/topology out to every member — POST forwards the
// event batch (topology changes must reach all replicas, not just one), GET
// collects the per-replica fleet summaries. The response is 200 while at
// least one replica answered 2xx, 502 when none did.
func (rt *Router) handleTopology(method string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var body []byte
		if method == http.MethodPost {
			var ok bool
			if body, ok = rt.readBody(w, r); !ok {
				return
			}
			rt.met.topologyFanouts.Inc()
		}
		rt.mu.Lock()
		targets := make([]Replica, 0, len(rt.members))
		for _, m := range rt.members {
			targets = append(targets, Replica{Name: m.name, URL: m.url})
		}
		rt.mu.Unlock()

		results := make([]FanoutResult, len(targets))
		var wg sync.WaitGroup
		for i, tgt := range targets {
			wg.Add(1)
			go func(i int, tgt Replica) {
				defer wg.Done()
				results[i] = rt.fanoutOne(r.Context(), method, tgt, body)
			}(i, tgt)
		}
		wg.Wait()

		sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })
		out := FanoutResponse{Version: rt.version.Load(), Replicas: results}
		for _, res := range results {
			if res.Status/100 != 2 {
				out.Failed++
			}
		}
		status := http.StatusOK
		if out.Failed == len(results) && len(results) > 0 {
			status = http.StatusBadGateway
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write(encodeJSON(out))
	}
}

// fanoutOne sends one replica its copy of a fan-out request.
func (rt *Router) fanoutOne(ctx context.Context, method string, tgt Replica, body []byte) FanoutResult {
	res := FanoutResult{Name: tgt.Name}
	fctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(fctx, method, tgt.URL+"/v2/topology", rd)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.markFailed(tgt.Name)
		res.Error = err.Error()
		return res
	}
	defer resp.Body.Close()
	res.Status = resp.StatusCode
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.Body = json.RawMessage(bytes.TrimRight(payload, "\n"))
	return res
}

// ReplicaStatus is one routing-table row in GET /v2/fleet.
type ReplicaStatus struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	State    string `json:"state"`
	Inflight int64  `json:"inflight"`
}

// FleetResponse is the body of GET /v2/fleet and of the join/leave admin
// routes: the routing table and its version.
type FleetResponse struct {
	Version  int64           `json:"version"`
	Routable int             `json:"routable"`
	Replicas []ReplicaStatus `json:"replicas"`
}

// fleetResponse snapshots the routing table.
func (rt *Router) fleetResponse() FleetResponse {
	rt.mu.Lock()
	out := FleetResponse{Version: rt.version.Load(), Replicas: make([]ReplicaStatus, 0, len(rt.members))}
	for _, m := range rt.members {
		if m.state().routable() {
			out.Routable++
		}
		out.Replicas = append(out.Replicas, ReplicaStatus{
			Name:     m.name,
			URL:      m.url,
			State:    m.state().String(),
			Inflight: m.inflight.Load(),
		})
	}
	rt.mu.Unlock()
	sort.Slice(out.Replicas, func(i, j int) bool { return out.Replicas[i].Name < out.Replicas[j].Name })
	return out
}

// handleFleet serves GET /v2/fleet: the live routing table.
func (rt *Router) handleFleet(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(encodeJSON(rt.fleetResponse()))
}

// handleJoin serves POST /v2/fleet/join: add (or re-add, resetting health) a
// replica at runtime. The body is a Replica; the response the updated table.
func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request) {
	var rep Replica
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&rep); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	if err := rt.join(rep); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(encodeJSON(rt.fleetResponse()))
}

// handleLeave serves POST /v2/fleet/leave: remove a replica by name.
func (rt *Router) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	if err := rt.leave(req.Name); err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(encodeJSON(rt.fleetResponse()))
}

// RouterMetricsResponse is the body of the router's GET /v1/metrics: the
// routing counters plus the table summary, mirroring the Prometheus
// exposition at GET /metrics.
type RouterMetricsResponse struct {
	Requests        int64 `json:"requests"`
	PeerHits        int64 `json:"peer_hits"`
	PeerMisses      int64 `json:"peer_misses"`
	Failovers       int64 `json:"failovers"`
	Spills          int64 `json:"spills"`
	Errors          int64 `json:"errors"`
	ProbeFailures   int64 `json:"probe_failures"`
	TopologyFanouts int64 `json:"topology_fanouts"`
	Replicas        int   `json:"replicas"`
	Routable        int   `json:"routable"`
	Version         int64 `json:"version"`
}

// handleMetrics serves the router counters as JSON.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := rt.fleetResponse()
	out := RouterMetricsResponse{
		Requests:        rt.met.requests.Value(),
		PeerHits:        rt.met.peerHits.Value(),
		PeerMisses:      rt.met.peerMisses.Value(),
		Failovers:       rt.met.failovers.Value(),
		Spills:          rt.met.spills.Value(),
		Errors:          rt.met.errors.Value(),
		ProbeFailures:   rt.met.probeFailures.Value(),
		TopologyFanouts: rt.met.topologyFanouts.Value(),
		Replicas:        len(snap.Replicas),
		Routable:        snap.Routable,
		Version:         snap.Version,
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(encodeJSON(out))
}

// handlePrometheus serves the router registry in text exposition format.
func (rt *Router) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	rt.reg.WritePrometheus(w)
}

// handleHealth serves GET /healthz: 200 while at least one replica routes.
func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	if len(rt.routable()) == 0 {
		writeError(w, http.StatusServiceUnavailable, "fleet: no routable replicas")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte("{\"status\":\"ok\"}\n"))
}

// handleTraceList serves GET /v2/trace: the retained fleet.route trace IDs,
// newest first.
func (rt *Router) handleTraceList(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(encodeJSON(struct {
		Traces []string `json:"traces"`
	}{Traces: rt.traces.List()}))
}

// handleTraceGet serves GET /v2/trace/{id}: one trace in Chrome
// trace-event format.
func (rt *Router) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.traces.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown trace")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}
