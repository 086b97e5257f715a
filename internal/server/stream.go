package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"flexsp/internal/obs"
	"flexsp/internal/solver"
)

// This file is the daemon's streaming ingestion surface: sequences arrive
// incrementally over POST /v2/stream/{open,append,close}, and the underlying
// solver.Stream solves the batch in the background once it reaches the
// session's expected count, so the close often finds its plan already done.
// Sessions are admitted at open against the StreamLimit, reaped by an idle
// timeout, and their final close passes the regular queue/tenant admission —
// but bypasses the drain refusal, so SIGTERM does not strand a session's
// last solve.

// StreamOpenRequest is the body of POST /v2/stream/open (an empty body is a
// valid default session).
type StreamOpenRequest struct {
	// Tenant labels the session for close-time admission control, like the
	// plan endpoints.
	Tenant string `json:"tenant,omitempty"`
	// Expect is the anticipated sequence count: the append that reaches it
	// starts a background solve of the batch. Zero means unknown, and the
	// close solves, byte-identical to POST /v2/plan on the same lengths.
	Expect int `json:"expect,omitempty"`
}

// StreamOpenResponse is the body of a successful open.
type StreamOpenResponse struct {
	// Session is the identifier the append/close routes key on.
	Session string `json:"session"`
	// Expect echoes the session's expected sequence count.
	Expect int `json:"expect,omitempty"`
}

// StreamAppendRequest is the body of POST /v2/stream/{id}/append.
type StreamAppendRequest struct {
	Lengths []int `json:"lengths"`
}

// StreamAppendResponse is the body of a successful append.
type StreamAppendResponse struct {
	// Accepted is the number of lengths this append added; Total the
	// session's running sequence count.
	Accepted int `json:"accepted"`
	Total    int `json:"total"`
}

// StreamCloseRequest is the body of POST /v2/stream/{id}/close (an empty
// body closes without provenance).
type StreamCloseRequest struct {
	// Explain asks for the envelope's provenance attachment, like
	// POST /v2/plan.
	Explain bool `json:"explain,omitempty"`
}

// streamSession is one registered streaming session: the solver-level
// stream plus the bookkeeping the daemon needs to reap and close it. The
// timer field is guarded by Server.streamMu.
type streamSession struct {
	id     string
	tenant string
	st     *solver.Stream
	// state is the plan state the session pinned at open: its background
	// solve runs on that state's solver. A close after a replan has landed
	// solves the session's lengths on the live plan state instead; a close
	// inside the debounce window, before the replan, stays on the pinned
	// state and is flagged degraded like any plan from a lagging state.
	state *planState
	timer *time.Timer
}

// decodeOptional is decodeRequest for routes where an empty body is a valid
// request (stream open and close).
func decodeOptional(w http.ResponseWriter, r *http.Request, out any, met *metrics) bool {
	r.Body = http.MaxBytesReader(w, r.Body, 32<<20)
	if err := json.NewDecoder(r.Body).Decode(out); err != nil && err != io.EOF {
		met.errors.Add(1)
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return false
	}
	return true
}

// handleStreamOpen serves POST /v2/stream/open: register a session and start
// its idle timer. Opens are refused while draining (a new session could not
// be closed before shutdown finishes draining the queue) and beyond
// StreamLimit.
func (s *Server) handleStreamOpen(w http.ResponseWriter, r *http.Request) {
	var req StreamOpenRequest
	if !decodeOptional(w, r, &req, &s.met) {
		return
	}
	if s.draining.Load() {
		s.met.unavailable.Add(1)
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if req.Expect < 0 {
		s.met.errors.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Sprintf("negative expect %d", req.Expect))
		return
	}
	id := obs.NewRequestID()
	state := s.planState()
	sess := &streamSession{id: id, tenant: req.Tenant, st: solver.NewStream(state.solver, req.Expect), state: state}

	s.streamMu.Lock()
	if len(s.streams) >= s.cfg.StreamLimit {
		s.streamMu.Unlock()
		sess.st.Cancel()
		s.met.rejected.Add(1)
		writeError(w, http.StatusTooManyRequests, "stream session limit")
		return
	}
	s.streams[id] = sess
	if s.cfg.StreamTimeout > 0 {
		sess.timer = time.AfterFunc(s.cfg.StreamTimeout, func() { s.expireStream(id, sess) })
	}
	s.streamMu.Unlock()

	s.met.streamOpened.Add(1)
	s.logger.Debug("stream opened", "session", id, "tenant", req.Tenant, "expect", req.Expect)
	w.Header().Set("X-Flexsp-Request-Id", id)
	w.Header().Set("Content-Type", "application/json")
	w.Write(encodeJSON(StreamOpenResponse{Session: id, Expect: req.Expect}))
}

// touchStream looks a session up and resets its idle timer.
func (s *Server) touchStream(id string) (*streamSession, bool) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	sess, ok := s.streams[id]
	if ok && sess.timer != nil {
		sess.timer.Reset(s.cfg.StreamTimeout)
	}
	return sess, ok
}

// takeStream removes a session from the registry and stops its idle timer;
// the caller owns its lifecycle afterwards.
func (s *Server) takeStream(id string) (*streamSession, bool) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	sess, ok := s.streams[id]
	if !ok {
		return nil, false
	}
	delete(s.streams, id)
	if sess.timer != nil {
		sess.timer.Stop()
	}
	return sess, true
}

// restoreStream re-registers a session whose close was refused by admission
// control, restarting its idle timer so the client can retry.
func (s *Server) restoreStream(sess *streamSession) {
	s.streamMu.Lock()
	s.streams[sess.id] = sess
	if s.cfg.StreamTimeout > 0 {
		sess.timer = time.AfterFunc(s.cfg.StreamTimeout, func() { s.expireStream(sess.id, sess) })
	}
	s.streamMu.Unlock()
}

// expireStream reaps an idle session. The identity check keeps a stale
// timer (racing a close that already took the session, or a re-register
// after a refused close) from canceling a live one.
func (s *Server) expireStream(id string, sess *streamSession) {
	s.streamMu.Lock()
	cur, ok := s.streams[id]
	if !ok || cur != sess {
		s.streamMu.Unlock()
		return
	}
	delete(s.streams, id)
	s.streamMu.Unlock()
	sess.st.Cancel()
	s.countStream(sess.st.Stats())
	s.met.streamExpired.Add(1)
	s.logger.Info("stream expired", "session", id, "tenant", sess.tenant, "appended", sess.st.Len())
}

// handleStreamAppend serves POST /v2/stream/{id}/append.
func (s *Server) handleStreamAppend(w http.ResponseWriter, r *http.Request) {
	var req StreamAppendRequest
	if !decodeRequest(w, r, &req, &s.met) {
		return
	}
	for _, l := range req.Lengths {
		if l <= 0 {
			s.met.errors.Add(1)
			writeError(w, http.StatusBadRequest, fmt.Sprintf("non-positive sequence length %d", l))
			return
		}
	}
	id := r.PathValue("id")
	sess, ok := s.touchStream(id)
	if !ok {
		s.met.errors.Add(1)
		writeError(w, http.StatusNotFound, "unknown stream session (closed, expired, or never opened)")
		return
	}
	total, err := sess.st.Append(req.Lengths...)
	if err != nil {
		// The session raced its own close or expiry between lookup and
		// append; the registry entry (if any) is on its way out.
		s.met.errors.Add(1)
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(encodeJSON(StreamAppendResponse{Accepted: len(req.Lengths), Total: total}))
}

// handleStreamClose serves POST /v2/stream/{id}/close: seal the session and
// return the final plan envelope, served by the session's background solve
// when it covered exactly the closed batch, else solved at close — on the
// live plan state when a replan has landed since the session opened. The
// solve passes normal queue/tenant admission but bypasses the drain refusal
// — the session was admitted at open, and drain must let it finish.
func (s *Server) handleStreamClose(w http.ResponseWriter, r *http.Request) {
	var req StreamCloseRequest
	if !decodeOptional(w, r, &req, &s.met) {
		return
	}
	id := r.PathValue("id")
	sess, ok := s.takeStream(id)
	if !ok {
		s.met.errors.Add(1)
		writeError(w, http.StatusNotFound, "unknown stream session (closed, expired, or never opened)")
		return
	}
	release, status, msg := s.admitAs(sess.tenant, true)
	if status != 0 {
		// Refused by queue or tenant limits: hand the session back so the
		// client can retry the close.
		s.restoreStream(sess)
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

	ctx, span := obs.Start(ctx, "server.stream_close")
	span.SetAttr("session", id)
	span.SetAttr("seqs", sess.st.Len())
	closeStart := time.Now()
	state := sess.state
	if live := s.planState(); live.snap.Version > state.snap.Version {
		state = live
	}
	var res solver.Result
	var err error
	if state.solver != sess.state.solver {
		// A replan rebuilt the solver since the session opened, and the
		// session's background solve planned for the retired fleet view:
		// give it up and solve the batch on the live plan state, as
		// /v2/plan would.
		sess.st.Cancel()
		span.SetAttr("replanned", true)
		res, err = state.solver.SolveContext(ctx, sess.st.Lengths())
	} else {
		res, err = sess.st.Close(ctx)
	}
	wall := time.Since(closeStart)
	stats := sess.st.Stats()
	s.countStream(stats)
	span.SetAttr("reused", stats.Reused)
	if err != nil {
		span.SetError(err)
	}
	span.End()
	s.logger.Debug("stream closed",
		"session", id,
		"tenant", sess.tenant,
		"seqs", stats.Appended,
		"reused", stats.Reused,
		"latency", wall,
		"err", err)
	if err != nil {
		s.met.errors.Add(1)
		if ctx.Err() != nil {
			writeError(w, statusClientGone, "canceled: client disconnected during close")
			return
		}
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	s.met.planAfterClose.Observe(wall.Seconds())
	s.met.latency.Observe(wall.Seconds())

	env := s.flexEnvelope(state, res, req.Explain)
	// The envelope's top-level wall is the plan-after-close latency — what
	// the streaming mode optimizes; the flat section keeps the underlying
	// solve's own wall.
	env.SolveWallSeconds = wall.Seconds()
	env.Degraded = s.degradedPlan(state)
	env.Stream = &stats
	w.Header().Set("Content-Type", "application/json")
	w.Write(encodeJSON(env))
}

// countStream adds an ended session's stats to the stream counters.
func (s *Server) countStream(stats solver.StreamStats) {
	s.met.specSolves.Add(stats.Speculations)
	s.met.specSuperseded.Add(stats.Superseded)
	if stats.Reused {
		s.met.streamReused.Add(1)
	}
}

// streamMetrics builds the /v1/metrics streaming section.
func (s *Server) streamMetrics() StreamMetrics {
	s.streamMu.Lock()
	open := len(s.streams)
	s.streamMu.Unlock()
	return StreamMetrics{
		Opened:       s.met.streamOpened.Value(),
		Open:         open,
		Expired:      s.met.streamExpired.Value(),
		Speculations: s.met.specSolves.Value(),
		Superseded:   s.met.specSuperseded.Value(),
		Reused:       s.met.streamReused.Value(),
	}
}
