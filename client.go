package flexsp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"time"

	"flexsp/internal/cluster"
	"flexsp/internal/fleet"
	"flexsp/internal/obs"
	"flexsp/internal/server"
)

// Client talks to a flexsp-serve planning daemon (see internal/server and
// cmd/flexsp-serve): training jobs submit their batch signatures over HTTP
// and receive placed plans, so one long-lived solver serves many trainers.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Tenant labels this client's requests for the daemon's per-tenant
	// admission control; empty shares the unlabeled bucket.
	Tenant string
	// HTTPClient overrides http.DefaultClient when non-nil.
	HTTPClient *http.Client
	// Retry opts this client into automatic retries: 429 refusals (the
	// daemon's admission control asks the client to come back) retry on
	// every method, and transport errors (connection reset, refused) retry
	// only on idempotent requests — plan, metrics, health, and stream
	// open, never stream append/close, which may have reached the
	// daemon. Nil (the default) never retries.
	Retry *RetryPolicy
}

// RetryPolicy shapes Client retries: capped exponential backoff with full
// jitter, bounded by both an attempt count and a total-sleep budget. The
// zero value of any field takes its default.
type RetryPolicy struct {
	// MaxAttempts bounds tries including the first (default 4).
	MaxAttempts int
	// BaseDelay seeds the backoff (default 50ms); each retry doubles it up
	// to MaxDelay (default 2s), sleeping a uniformly jittered duration in
	// [delay/2, delay].
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Budget caps the total time spent sleeping between retries (default
	// 5s); when the next jittered delay would exceed it, the last error is
	// returned instead.
	Budget time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Budget <= 0 {
		p.Budget = 5 * time.Second
	}
	return p
}

// retryable classifies an error from do: 429 means the daemon refused
// admission without processing anything, safe to retry on any method;
// transport errors are safe only when the request is idempotent (the daemon
// may or may not have seen it).
func retryable(err error, idempotent bool) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Status == http.StatusTooManyRequests
	}
	var ue *url.Error
	return errors.As(err, &ue) && idempotent
}

// NewClient returns a Client for the daemon at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL}
}

// StatusError is a non-2xx daemon response: 429 when admission control
// refused the request (retry later), 503 while draining.
type StatusError struct {
	Status  int
	Message string
}

// Error formats the status and the daemon's error message.
func (e *StatusError) Error() string {
	return fmt.Sprintf("flexsp: server status %d: %s", e.Status, e.Message)
}

// Overloaded reports whether the daemon refused the request under load
// (queue or tenant overflow) — the retryable case.
func (e *StatusError) Overloaded() bool {
	return e.Status == http.StatusTooManyRequests
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// post sends a JSON body and decodes the response into out; idempotent
// widens the retry policy to transport errors.
func (c *Client) post(ctx context.Context, path string, in, out any, idempotent bool) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("flexsp: encoding request: %w", err)
	}
	// Propagate the request ID end to end: reuse the one already on the
	// context (e.g. minted by an outer handler), else mint a fresh one. The
	// daemon echoes it back and tags its logs and trace with it. Retries
	// reuse the same ID, so the daemon sees them as one logical request.
	rid := obs.RequestID(ctx)
	if rid == "" {
		rid = obs.NewRequestID()
	}
	mk := func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("flexsp: %w", err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Flexsp-Request-Id", rid)
		return req, nil
	}
	return c.doRetry(ctx, mk, out, idempotent)
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	mk := func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
		if err != nil {
			return nil, fmt.Errorf("flexsp: %w", err)
		}
		return req, nil
	}
	return c.doRetry(ctx, mk, out, true)
}

// doRetry runs the request through the client's retry policy; with no
// policy it is a single do.
func (c *Client) doRetry(ctx context.Context, mk func() (*http.Request, error), out any, idempotent bool) error {
	if c.Retry == nil {
		req, err := mk()
		if err != nil {
			return err
		}
		return c.do(req, out)
	}
	p := c.Retry.withDefaults()
	delay := p.BaseDelay
	var slept time.Duration
	var lastErr error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if attempt > 0 {
			// Full jitter in [delay/2, delay]: concurrent clients refused
			// by the same overloaded daemon must not retry in lockstep.
			d := delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1))
			if d > p.Budget-slept {
				return lastErr
			}
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return lastErr
			case <-t.C:
			}
			slept += d
			if delay *= 2; delay > p.MaxDelay {
				delay = p.MaxDelay
			}
		}
		req, err := mk()
		if err != nil {
			return err
		}
		if err = c.do(req, out); err == nil {
			return nil
		}
		lastErr = err
		if !retryable(err, idempotent) || ctx.Err() != nil {
			return err
		}
	}
	return lastErr
}

func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("flexsp: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg := resp.Status
		var e server.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err == nil && e.Error != "" {
			msg = e.Error
		}
		return &StatusError{Status: resp.StatusCode, Message: msg}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("flexsp: decoding response: %w", err)
	}
	return nil
}

// PlanRequest is the body of POST /v2/plan, re-exported so clients can name
// it without importing the wire package: the batch lengths, the named
// strategy, and the static baselines' MaxCtx.
type PlanRequest = server.PlanRequest

// Plan submits one batch to POST /v2/plan and returns the tagged plan
// envelope for the requested strategy (empty = the daemon default, flexsp).
// The envelope's Plans method yields executable micro-plans for
// System.Execute; an empty request tenant takes the client's Tenant label.
func (c *Client) Plan(ctx context.Context, req PlanRequest) (server.PlanEnvelope, error) {
	if req.Tenant == "" {
		req.Tenant = c.Tenant
	}
	var out server.PlanEnvelope
	err := c.post(ctx, "/v2/plan", req, &out, true)
	return out, err
}

// Stream opens a streaming planning session on the daemon (POST
// /v2/stream/open): sequence lengths are appended as they arrive, and with
// opts.Expect set the daemon solves the batch in the background once it is
// complete, so Close finds the plan done or under way. This is the remote
// counterpart of System.PlanStream.
func (c *Client) Stream(ctx context.Context, opts StreamOptions) (*ClientStream, error) {
	req := server.StreamOpenRequest{Tenant: c.Tenant, Expect: opts.Expect}
	var out server.StreamOpenResponse
	if err := c.post(ctx, "/v2/stream/open", req, &out, true); err != nil {
		return nil, err
	}
	return &ClientStream{c: c, id: out.Session}, nil
}

// ClientStream is an open streaming session on the daemon. Methods are safe
// for concurrent use; the daemon serializes appends into one batch.
type ClientStream struct {
	c  *Client
	id string
}

// ID is the daemon-assigned session identifier.
func (s *ClientStream) ID() string { return s.id }

// Append sends sequence lengths to the session (POST /v2/stream/{id}/append)
// and returns the total accumulated on the daemon so far.
func (s *ClientStream) Append(ctx context.Context, lengths []int) (int, error) {
	var out server.StreamAppendResponse
	err := s.c.post(ctx, "/v2/stream/"+s.id+"/append", server.StreamAppendRequest{Lengths: lengths}, &out, false)
	return out.Total, err
}

// Close seals the session (POST /v2/stream/{id}/close) and returns the plan
// envelope; env.SolveWallSeconds is the close-to-plan latency and env.Stream
// the session's stats. The session is gone afterwards — a second
// Close returns a 404 StatusError.
func (s *ClientStream) Close(ctx context.Context) (server.PlanEnvelope, error) {
	var out server.PlanEnvelope
	err := s.c.post(ctx, "/v2/stream/"+s.id+"/close", server.StreamCloseRequest{}, &out, false)
	return out, err
}

// TopologyEvent is one live-topology change (node loss, straggler, rejoin),
// re-exported from the cluster package for Client.ApplyTopology.
type TopologyEvent = cluster.Event

// Topology fetches the elastic daemon's live-fleet summary
// (GET /v2/topology); a static daemon returns a 501 StatusError.
func (c *Client) Topology(ctx context.Context) (server.TopologyResponse, error) {
	var out server.TopologyResponse
	err := c.get(ctx, "/v2/topology", &out)
	return out, err
}

// ApplyTopology posts a batch of topology events (POST /v2/topology),
// applied atomically, and returns the updated fleet summary. Events are not
// idempotent (a rejoin re-applied would double), so the retry policy covers
// only 429 refusals, never transport errors.
func (c *Client) ApplyTopology(ctx context.Context, events ...TopologyEvent) (server.TopologyResponse, error) {
	var out server.TopologyResponse
	err := c.post(ctx, "/v2/topology", server.TopologyRequest{Events: events}, &out, false)
	return out, err
}

// FleetReplica names one flexsp-serve instance behind a flexsp-fleet
// router: a stable routing name (the rendezvous hash mixes it with each
// batch signature) and the daemon's base URL.
type FleetReplica = fleet.Replica

// FleetStatus is a flexsp-fleet router's routing table: the member replicas
// with their health states and in-flight counts, the routable count, and
// the table version (bumps on every membership or health change).
type FleetStatus = fleet.FleetResponse

// Fleet fetches the routing table (GET /v2/fleet) from a flexsp-fleet
// router. Against a plain flexsp-serve daemon the route does not exist and
// a 404 StatusError comes back.
func (c *Client) Fleet(ctx context.Context) (FleetStatus, error) {
	var out FleetStatus
	err := c.get(ctx, "/v2/fleet", &out)
	return out, err
}

// FleetJoin adds (or re-adds, resetting health) a replica to a flexsp-fleet
// router at runtime (POST /v2/fleet/join) and returns the updated table.
// Joining is idempotent for a fixed (name, URL) pair, so the retry policy
// covers transport errors too.
func (c *Client) FleetJoin(ctx context.Context, rep FleetReplica) (FleetStatus, error) {
	var out FleetStatus
	err := c.post(ctx, "/v2/fleet/join", rep, &out, true)
	return out, err
}

// FleetLeave removes a replica from a flexsp-fleet router by name (POST
// /v2/fleet/leave) and returns the updated table; an unknown name is a 404
// StatusError. A retried leave would 404 after the first one landed, so the
// retry policy covers only 429 refusals.
func (c *Client) FleetLeave(ctx context.Context, name string) (FleetStatus, error) {
	var out FleetStatus
	err := c.post(ctx, "/v2/fleet/leave", struct {
		Name string `json:"name"`
	}{Name: name}, &out, false)
	return out, err
}

// Metrics fetches GET /v1/metrics.
func (c *Client) Metrics(ctx context.Context) (server.MetricsResponse, error) {
	var out server.MetricsResponse
	err := c.get(ctx, "/v1/metrics", &out)
	return out, err
}

// Health checks GET /healthz; a draining or down daemon returns an error.
func (c *Client) Health(ctx context.Context) error {
	return c.get(ctx, "/healthz", nil)
}
