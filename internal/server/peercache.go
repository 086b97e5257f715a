package server

import (
	"container/list"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// envelopeCache keeps the pre-encoded bytes of recently served /v2/plan
// envelopes, keyed by the exact batch signature plus the pass coordinates
// (strategy, maxCtx, explain). It is what GET /v2/cache/{sig} serves: a fleet
// router whose consistent-hash table just moved a signature to a cold replica
// probes the signature's previous home here and reuses the envelope instead
// of paying a cold solve — the remote tier of the fleet's two-tier plan
// cache. Entries are verbatim response bodies, so a peer-served plan is
// byte-identical to the one the original replica sent its own clients.
//
// Two guards keep stale fleet views out of the peer tier. Degraded envelopes
// (an elastic replica answering while its plan state lags the live topology)
// are never stored: they describe a transient fleet view no peer should
// replicate. And every entry is stamped with the topology version of the plan
// state that planned it; a fetch compares the stamp against the live
// topology version and misses on any difference, so envelopes stored before
// a POST /v2/topology event never outlive the replan that absorbs it.
type envelopeCache struct {
	mu      sync.Mutex
	limit   int
	entries map[uint64]*list.Element
	lru     list.List // front = most recently used
}

type envelopeEntry struct {
	key  uint64
	sig  []int32 // exact canonical signature, for collision detection
	ver  int64   // topology version the envelope's plan state was built for
	body []byte  // the encoded PlanEnvelope, trailing newline included
}

func newEnvelopeCache(limit int) *envelopeCache {
	return &envelopeCache{limit: limit, entries: make(map[uint64]*list.Element)}
}

// put stores the encoded envelope for a served pass, stamped with the
// topology version it was planned under, evicting the least recently used
// entry past the limit.
func (c *envelopeCache) put(key uint64, sig []int32, ver int64, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*envelopeEntry)
		e.ver = ver
		e.body = body
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&envelopeEntry{key: key, sig: sig, ver: ver, body: body})
	if c.lru.Len() > c.limit {
		el := c.lru.Back()
		c.lru.Remove(el)
		delete(c.entries, el.Value.(*envelopeEntry).key)
	}
}

// get returns the stored envelope bytes and signature for key, marking the
// entry recently used. Entries stamped with a topology version other than
// ver miss — and are dropped outright, since versions only move forward so
// a mismatched entry can never become valid again.
func (c *envelopeCache) get(key uint64, ver int64) (sig []int32, body []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.entries[key]
	if !found {
		return nil, nil, false
	}
	e := el.Value.(*envelopeEntry)
	if e.ver != ver {
		c.lru.Remove(el)
		delete(c.entries, key)
		return nil, nil, false
	}
	c.lru.MoveToFront(el)
	return e.sig, e.body, true
}

func (c *envelopeCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// CacheFetchResponse is the body of a GET /v2/cache/{sig} hit. Sig echoes the
// exact canonical signature of the cached batch so the fetcher can rule out a
// 64-bit hash collision before trusting the envelope; Version is the topology
// version the envelope's plan was built for (always this replica's live
// version — entries stamped with any other version are never served);
// Envelope carries the stored /v2/plan body verbatim (json.RawMessage keeps
// the bytes untouched), so serving it preserves byte identity with the
// original response.
type CacheFetchResponse struct {
	Sig      []int32         `json:"sig"`
	Strategy string          `json:"strategy"`
	Version  int64           `json:"version"`
	Envelope json.RawMessage `json:"envelope"`
}

// topologyVersion is the live topology version that envelope stamps are
// checked against. A static daemon is forever at version 0.
func (s *Server) topologyVersion() int64 {
	if s.cfg.Topology == nil {
		return 0
	}
	return s.cfg.Topology.Version()
}

// storeEnvelope records a successfully served, non-degraded /v2/plan pass in
// the envelope cache, stamped with the topology version of st, the plan
// state that planned it. An event applied after the pass's degraded check
// leaves the entry stamped with the old version, which get rejects.
func (s *Server) storeEnvelope(job planJob, st *planState, body []byte) {
	// The stored bytes drop encodeJSON's trailing newline: they travel as a
	// json.RawMessage, whose marshalling compacts surrounding whitespace
	// away. The fetcher re-appends the newline, restoring byte identity with
	// the response the original replica wrote.
	if n := len(body); n > 0 && body[n-1] == '\n' {
		body = body[:n-1]
	}
	sig, key := job.key()
	s.envelopes.put(key, sig, st.snap.Version, body)
}

// handleCacheFetch serves GET /v2/cache/{sig}: the peer-fetch tier of the
// fleet's two-tier plan cache. {sig} is the 16-hex-digit exact-signature hash
// (solver.Signature) of the batch; strategy, maxCtx and explain arrive as
// query parameters and default (and case-normalize) like POST /v2/plan. A
// hit answers 200 with the stored envelope and its full signature for
// collision checking; a miss is 404 — including for entries stored before
// the latest topology event, which describe a fleet view that no longer
// exists and must not be replicated to peers. The endpoint never solves — it
// only reveals plans this replica already served — so it is safe to probe at
// any rate and is exempt from admission control.
func (s *Server) handleCacheFetch(w http.ResponseWriter, r *http.Request) {
	sigKey, err := strconv.ParseUint(r.PathValue("sig"), 16, 64)
	if err != nil {
		s.met.errors.Add(1)
		writeError(w, http.StatusBadRequest, "invalid signature key: "+err.Error())
		return
	}
	q := r.URL.Query()
	// Lowercase like handlePlanV2 does before solving: envelopes are stored
	// under the normalized name, so a mixed-case probe must map to the same
	// key instead of silently always missing.
	strategy := strings.ToLower(q.Get("strategy"))
	if strategy == "" {
		strategy = "flexsp"
	}
	maxCtx := 0
	if v := q.Get("maxCtx"); v != "" {
		if maxCtx, err = strconv.Atoi(v); err != nil {
			s.met.errors.Add(1)
			writeError(w, http.StatusBadRequest, "invalid maxCtx: "+err.Error())
			return
		}
	}
	explain := q.Get("explain") == "true"
	ver := s.topologyVersion()
	sig, body, ok := s.envelopes.get(passKey(sigKey, strategy, maxCtx, explain), ver)
	if !ok {
		s.met.cacheFetchMisses.Inc()
		writeError(w, http.StatusNotFound, "envelope not cached")
		return
	}
	s.met.cacheFetchHits.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Write(encodeJSON(CacheFetchResponse{Sig: sig, Strategy: strategy, Version: ver, Envelope: body}))
}
