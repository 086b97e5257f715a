package obs

import (
	"bytes"
	"sync"
)

// TraceRing keeps the Chrome-trace exports of the last completed traces,
// keyed by trace ID: the store behind a GET /v2/trace listing and its
// GET /v2/trace/{id} lookups, on the daemon and the fleet router alike. A
// trace is exported once, when it is added (off the request's hot path), and
// the oldest entry is evicted past the limit. A nil *TraceRing is a disabled
// ring: Add drops traces, Get misses and List is empty.
type TraceRing struct {
	mu    sync.Mutex
	limit int
	ids   []string // insertion order, oldest first
	byID  map[string][]byte
}

// NewTraceRing returns a ring that keeps the last limit traces.
func NewTraceRing(limit int) *TraceRing {
	return &TraceRing{limit: limit, byID: make(map[string][]byte)}
}

// Add exports a finished trace and stores it under its ID, replacing an
// earlier export of the same trace in place.
func (r *TraceRing) Add(t *Trace) {
	if r == nil || t == nil {
		return
	}
	var buf bytes.Buffer
	if err := t.WriteChrome(&buf); err != nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byID[t.ID()]; !dup {
		r.ids = append(r.ids, t.ID())
	}
	r.byID[t.ID()] = buf.Bytes()
	for len(r.ids) > r.limit {
		delete(r.byID, r.ids[0])
		r.ids = r.ids[1:]
	}
}

// Get returns a stored trace export.
func (r *TraceRing) Get(id string) ([]byte, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	body, ok := r.byID[id]
	return body, ok
}

// List returns the stored trace IDs, newest first; never nil, so it encodes
// as a JSON array.
func (r *TraceRing) List() []string {
	if r == nil {
		return []string{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.ids))
	for i := len(r.ids) - 1; i >= 0; i-- {
		out = append(out, r.ids[i])
	}
	return out
}
