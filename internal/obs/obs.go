// Package obs is the zero-dependency observability substrate threaded
// through the whole planning path: context-carried spans (exported as Chrome
// trace_event JSON for chrome://tracing / Perfetto), a small Prometheus-
// compatible metrics registry (counters, gauges, fixed-bucket histograms),
// request-ID propagation for structured logs, and shared pprof helpers for
// the CLIs and the daemon.
//
// Tracing is opt-in per request: a collector is installed with NewTrace, and
// every instrumentation point calls
//
//	ctx, sp := obs.Start(ctx, "solver.trial")
//	defer sp.End()
//	sp.SetAttr("m", m)
//
// When no trace is installed Start returns a nil span whose methods are
// no-ops, so instrumented hot paths pay one context lookup and nothing else —
// the solver and planner benchmarks must not regress with tracing disabled.
// Spans are safe for concurrent use: the parallel branch-and-bound attaches
// children to one parent from many goroutines.
package obs

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// ctxKey keys the obs context values.
type ctxKey int

const (
	spanKey ctxKey = iota
	requestIDKey
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value any
}

// Span is one timed operation in a trace tree. A nil *Span is a valid no-op
// span (the tracing-disabled fast path); all methods are nil-safe.
type Span struct {
	tr    *Trace
	name  string
	start time.Duration // offset from trace start
	seq   int64         // creation order within the trace (export tie-break)

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// Name returns the span's name ("" for the nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetAttr annotates the span. Setting an existing key replaces its value.
// No-op on the nil span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetError records err under the "error" attr when non-nil.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.SetAttr("error", err.Error())
}

// End marks the span finished, recording its duration. Idempotent; no-op on
// the nil span. Ending a span whose context was canceled mid-flight is valid
// — spans measure wall time and are not tied to context cancellation.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = s.tr.clock() - s.start
	}
	s.mu.Unlock()
}

// StartChild starts a child span directly, without a context. It exists for
// worker loops (e.g. the branch-and-bound pool) that hold a parent span but
// no per-iteration context; on a nil receiver it returns nil, keeping the
// disabled path free.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tr: s.tr, name: name, start: s.tr.clock(), seq: s.tr.seq.Add(1)}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// snapshot copies the span's mutable state for export.
func (s *Span) snapshot(now time.Duration) (dur time.Duration, ended bool, attrs []Attr, children []*Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dur = s.dur
	if !s.ended {
		dur = now - s.start
		if dur < 0 {
			dur = 0
		}
	}
	return dur, s.ended, append([]Attr(nil), s.attrs...), append([]*Span(nil), s.children...)
}

// Trace is one trace tree: a root span plus everything started under it.
type Trace struct {
	id      string
	started time.Time
	root    *Span
	seq     atomic.Int64
	// now returns the offset from trace start; tests replace it for
	// deterministic exports.
	now func() time.Duration
}

// traceCounter makes trace and request IDs unique within the process.
var traceCounter atomic.Int64

// newID builds a short process-unique hex ID with the given prefix.
func newID(prefix string) string {
	return fmt.Sprintf("%s-%x-%04x", prefix, os.Getpid(), traceCounter.Add(1))
}

// NewTrace installs a trace collector on the context and opens its root
// span. Every subsequent Start under the returned context records into this
// trace. End the root (or the whole trace) with Trace.End before exporting.
func NewTrace(ctx context.Context, name string) (context.Context, *Trace) {
	tr := &Trace{id: newID("t"), started: time.Now()}
	tr.now = func() time.Duration { return time.Since(tr.started) }
	tr.root = &Span{tr: tr, name: name, start: 0, seq: tr.seq.Add(1)}
	return withSpan(ctx, tr.root), tr
}

// ID returns the trace's process-unique identifier.
func (t *Trace) ID() string { return t.id }

// Root returns the root span.
func (t *Trace) Root() *Span { return t.root }

// End ends the root span.
func (t *Trace) End() { t.root.End() }

// clock returns the current offset from trace start.
func (t *Trace) clock() time.Duration { return t.now() }

// Start opens a child span of the context's current span and returns a
// context carrying it. With no trace installed it returns the context
// unchanged and a nil span — one context lookup, no allocation — so
// instrumentation may run unconditionally on hot paths.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	c := parent.StartChild(name)
	return withSpan(ctx, c), c
}

// FromContext returns the context's current span, or nil when tracing is
// disabled. Use it to annotate the enclosing span without opening a child.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// Enabled reports whether a trace collector is installed on the context.
func Enabled(ctx context.Context) bool { return FromContext(ctx) != nil }

// WithRequestID returns a context carrying the request ID, propagated
// client → server → solver and stamped into structured logs and span attrs.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return withValue(ctx, requestIDKey, id)
}

// RequestID returns the context's request ID ("" when unset).
func RequestID(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// NewRequestID mints a process-unique request ID.
func NewRequestID() string { return newID("r") }

// withSpan installs s as the context's current span.
func withSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey, s)
}

// withValue wraps context.WithValue with the package's private key type.
func withValue(ctx context.Context, key ctxKey, v any) context.Context {
	return context.WithValue(ctx, key, v)
}
