package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"flexsp/internal/obs"
	"flexsp/internal/server"
)

// listener serves one in-process handler on a loopback port.
type listener struct {
	hs   *http.Server
	done chan struct{}
	url  string
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{hs: &http.Server{Handler: h}, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	go func() {
		defer close(l.done)
		l.hs.Serve(ln)
	}()
	return l, nil
}

// close stops the server and waits for its accept loop to exit.
func (l *listener) close() {
	l.hs.Close()
	<-l.done
}

// newClient is a keep-alive client for the benchmark's closed-loop callers,
// separate from the transport the fleet router proxies with.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}, Timeout: time.Minute}
}

// do sends one JSON request and decodes a 2xx JSON answer into out. It
// returns the response body size.
func do(c *http.Client, method, url, rid string, in, out any) (int, error) {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if rid != "" {
		req.Header.Set("X-Flexsp-Request-Id", rid)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return len(buf), fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(buf))
	}
	if out != nil {
		if err := json.Unmarshal(buf, out); err != nil {
			return len(buf), fmt.Errorf("%s %s: decoding: %w", method, url, err)
		}
	}
	return len(buf), nil
}

// planOp posts one batch to POST /v2/plan and fills the op from the
// envelope; o.err records any failure.
func planOp(c *http.Client, base string, o *op) {
	var env server.PlanEnvelope
	start := time.Now()
	n, err := do(c, http.MethodPost, base+"/v2/plan", o.rid, server.PlanRequest{Lengths: o.lens}, &env)
	o.latency = time.Since(start)
	o.bytes = n
	switch {
	case err != nil:
		o.err = err
	case env.Degraded:
		o.err = fmt.Errorf("plan %s served degraded", o.rid)
	case env.Flat == nil:
		o.err = fmt.Errorf("plan %s has no flat section", o.rid)
	default:
		o.plans = env.Plans()
		o.est = env.EstTime
		o.m = env.Flat.M
		o.solve = time.Duration(env.SolveWallSeconds * float64(time.Second))
	}
}

// daemonMetrics scrapes a daemon's GET /v1/metrics.
func daemonMetrics(c *http.Client, base string) (server.MetricsResponse, error) {
	var m server.MetricsResponse
	_, err := do(c, http.MethodGet, base+"/v1/metrics", "", nil, &m)
	return m, err
}

// histogram reads a histogram's count and sum from a Prometheus scrape.
func histogram(c *http.Client, base, name string) (count, sum float64, err error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	fams, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		return 0, 0, err
	}
	for _, f := range fams {
		if f.Name != name {
			continue
		}
		for _, s := range f.Samples {
			switch s.Name {
			case name + "_count":
				count = s.Value
			case name + "_sum":
				sum = s.Value
			}
		}
		return count, sum, nil
	}
	return 0, 0, fmt.Errorf("no %s in %s/metrics", name, base)
}

// spanLog records the benchmark's own spans around calls into the program's
// handlers: one record per request, keyed by the request ID the client sent.
type spanLog struct {
	mu   sync.Mutex
	recs []span
}

type span struct {
	name, who, rid string
	dur            time.Duration
}

// wrap times every request h serves under name, attributed to who.
func (l *spanLog) wrap(name, who string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		s := span{name: name + " " + r.Method + " " + r.URL.Path, who: who, rid: r.Header.Get("X-Flexsp-Request-Id"), dur: time.Since(start)}
		l.mu.Lock()
		l.recs = append(l.recs, s)
		l.mu.Unlock()
	})
}

// byRID indexes the records of one span name by request ID.
func (l *spanLog) byRID(name string) map[string]span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]span)
	for _, s := range l.recs {
		if s.name == name && s.rid != "" {
			out[s.rid] = s
		}
	}
	return out
}
