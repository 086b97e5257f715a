package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// postStream POSTs a JSON body (nil means empty) to a stream route and
// returns the response with its body read.
func postStream(t *testing.T, url, path string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	} else {
		rd = bytes.NewReader(nil)
	}
	resp, err := http.Post(url+path, "application/json", rd)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// openStream opens a session and returns its ID.
func openStream(t *testing.T, url string, req StreamOpenRequest) string {
	t.Helper()
	resp, body := postStream(t, url, "/v2/stream/open", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open: status %d body %s", resp.StatusCode, body)
	}
	var open StreamOpenResponse
	if err := json.Unmarshal(body, &open); err != nil {
		t.Fatal(err)
	}
	if open.Session == "" {
		t.Fatal("open returned an empty session ID")
	}
	return open.Session
}

// flatJSON canonicalizes an envelope's flat section for byte-identity
// comparisons: the solve walls vary run to run, the plan content must not.
func flatJSON(t *testing.T, body []byte) string {
	t.Helper()
	var env PlanEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Flat == nil {
		t.Fatalf("envelope has no flat section: %s", body)
	}
	flat := *env.Flat
	flat.SolveWallSeconds = 0
	buf, err := json.Marshal(flat)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

func TestStreamLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	id := openStream(t, ts.URL, StreamOpenRequest{Expect: len(testBatch), Tenant: "trainer"})

	for i, l := range testBatch {
		resp, body := postStream(t, ts.URL, "/v2/stream/"+id+"/append", StreamAppendRequest{Lengths: []int{l}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append: status %d body %s", resp.StatusCode, body)
		}
		var ap StreamAppendResponse
		if err := json.Unmarshal(body, &ap); err != nil {
			t.Fatal(err)
		}
		if ap.Accepted != 1 || ap.Total != i+1 {
			t.Fatalf("append %d: %+v", i, ap)
		}
	}

	resp, body := postStream(t, ts.URL, "/v2/stream/"+id+"/close", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close: status %d body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Flexsp-Request-Id") == "" {
		t.Fatal("close response missing X-Flexsp-Request-Id")
	}
	var env PlanEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Strategy != "flexsp" || env.Flat == nil {
		t.Fatalf("close envelope: %s", body)
	}
	// The final append reached expect and started the background solve,
	// which the close reused.
	if env.Stream == nil || env.Stream.Appended != len(testBatch) || !env.Stream.Reused ||
		env.Stream.Speculations != 1 || env.Stream.Superseded != 0 {
		t.Fatalf("close stream stats: %+v", env.Stream)
	}

	// Plan content must match a cold /v2/plan of the same batch on a fresh
	// daemon (the streamed daemon's cache now covers the batch, which is the
	// point, so compare against a separate cold server).
	_, cold := newTestServer(t, Config{})
	req, _ := json.Marshal(PlanRequest{Lengths: testBatch})
	cresp, err := http.Post(cold.URL+"/v2/plan", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	cbody, _ := io.ReadAll(cresp.Body)
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cold plan: status %d body %s", cresp.StatusCode, cbody)
	}
	if g, w := flatJSON(t, body), flatJSON(t, cbody); g != w {
		t.Fatalf("streamed plan diverges from cold:\n%s\n%s", g, w)
	}

	m := srv.Metrics()
	if m.Stream.Opened != 1 || m.Stream.Open != 0 || m.Stream.Speculations != 1 ||
		m.Stream.Superseded != 0 || m.Stream.Reused != 1 {
		t.Fatalf("stream metrics: %+v", m.Stream)
	}
}

func TestStreamDisabledByteIdenticalToPlan(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Without expect the session solves at close, like POST /v2/plan.
	id := openStream(t, ts.URL, StreamOpenRequest{})
	if _, body := postStream(t, ts.URL, "/v2/stream/"+id+"/append", StreamAppendRequest{Lengths: testBatch}); len(body) == 0 {
		t.Fatal("append returned no body")
	}
	resp, body := postStream(t, ts.URL, "/v2/stream/"+id+"/close", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close: status %d body %s", resp.StatusCode, body)
	}
	var env PlanEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Stream == nil || env.Stream.Speculations != 0 || env.Stream.Reused {
		t.Fatalf("session without expect speculated: %+v", env.Stream)
	}

	_, cold := newTestServer(t, Config{})
	req, _ := json.Marshal(PlanRequest{Lengths: testBatch})
	cresp, err := http.Post(cold.URL+"/v2/plan", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	cbody, _ := io.ReadAll(cresp.Body)
	if g, w := flatJSON(t, body), flatJSON(t, cbody); g != w {
		t.Fatalf("stream without expect diverges from /v2/plan:\n%s\n%s", g, w)
	}
}

func TestStreamValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, _ := postStream(t, ts.URL, "/v2/stream/open", StreamOpenRequest{Expect: -1}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative expect: status %d", resp.StatusCode)
	}
	id := openStream(t, ts.URL, StreamOpenRequest{})
	if resp, _ := postStream(t, ts.URL, "/v2/stream/"+id+"/append", StreamAppendRequest{Lengths: []int{0}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero length: status %d", resp.StatusCode)
	}
}

func TestStreamUnknownSession(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, _ := postStream(t, ts.URL, "/v2/stream/nope/append", StreamAppendRequest{Lengths: testBatch}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("append unknown: status %d", resp.StatusCode)
	}
	if resp, _ := postStream(t, ts.URL, "/v2/stream/nope/close", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("close unknown: status %d", resp.StatusCode)
	}

	// A closed session is gone: append and a second close both 404.
	id := openStream(t, ts.URL, StreamOpenRequest{})
	postStream(t, ts.URL, "/v2/stream/"+id+"/append", StreamAppendRequest{Lengths: testBatch})
	if resp, _ := postStream(t, ts.URL, "/v2/stream/"+id+"/close", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("close: status %d", resp.StatusCode)
	}
	if resp, _ := postStream(t, ts.URL, "/v2/stream/"+id+"/append", StreamAppendRequest{Lengths: testBatch}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("append after close: status %d", resp.StatusCode)
	}
	if resp, _ := postStream(t, ts.URL, "/v2/stream/"+id+"/close", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double close: status %d", resp.StatusCode)
	}
}

func TestStreamSessionLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{StreamLimit: 1})
	id := openStream(t, ts.URL, StreamOpenRequest{})
	if resp, _ := postStream(t, ts.URL, "/v2/stream/open", nil); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("open beyond limit: status %d", resp.StatusCode)
	}
	// Closing the session frees the slot.
	postStream(t, ts.URL, "/v2/stream/"+id+"/append", StreamAppendRequest{Lengths: testBatch})
	if resp, _ := postStream(t, ts.URL, "/v2/stream/"+id+"/close", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("close: status %d", resp.StatusCode)
	}
	openStream(t, ts.URL, StreamOpenRequest{})
}

func TestStreamIdleTimeout(t *testing.T) {
	srv, ts := newTestServer(t, Config{StreamTimeout: 30 * time.Millisecond})
	id := openStream(t, ts.URL, StreamOpenRequest{})
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().Stream.Expired == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp, _ := postStream(t, ts.URL, "/v2/stream/"+id+"/close", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("close after expiry: status %d", resp.StatusCode)
	}
	if m := srv.Metrics(); m.Stream.Expired != 1 || m.Stream.Open != 0 {
		t.Fatalf("stream metrics after expiry: %+v", m.Stream)
	}
}

func TestStreamCloseBypassesDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	id := openStream(t, ts.URL, StreamOpenRequest{})
	postStream(t, ts.URL, "/v2/stream/"+id+"/append", StreamAppendRequest{Lengths: testBatch})

	srv.Drain()
	// New sessions are refused while draining...
	if resp, _ := postStream(t, ts.URL, "/v2/stream/open", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open while draining: status %d", resp.StatusCode)
	}
	// ...but the admitted session's close completes.
	resp, body := postStream(t, ts.URL, "/v2/stream/"+id+"/close", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close while draining: status %d body %s", resp.StatusCode, body)
	}
}

// TestStreamTimeoutRacesDrain hammers expiry, close, and Drain together
// (run with -race): every session must end exactly one way.
func TestStreamTimeoutRacesDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{StreamTimeout: 5 * time.Millisecond, StreamLimit: 64})
	var ids []string
	for i := 0; i < 8; i++ {
		ids = append(ids, openStream(t, ts.URL, StreamOpenRequest{}))
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			postStream(t, ts.URL, "/v2/stream/"+id+"/append", StreamAppendRequest{Lengths: testBatch})
			resp, body := postStream(t, ts.URL, "/v2/stream/"+id+"/close", nil)
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
				t.Errorf("close: status %d body %s", resp.StatusCode, body)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(2 * time.Millisecond)
		srv.Drain()
	}()
	wg.Wait()
	m := srv.Metrics()
	if m.Stream.Open != 0 {
		t.Fatalf("sessions leaked: %+v", m.Stream)
	}
	if got := m.Stream.Expired + int64(len(ids)); got < int64(len(ids)) {
		t.Fatalf("expiry accounting went negative: %+v", m.Stream)
	}
}

func TestStreamPrometheusSeries(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// The stream series must be present (at zero) before any stream
	// traffic — CI smoke-scrapes a fresh daemon.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, series := range []string{
		"flexsp_speculative_solves_total",
		"flexsp_speculative_superseded_total",
		"flexsp_stream_reused_total",
		"flexsp_stream_sessions_total",
		"flexsp_stream_expired_total",
		"flexsp_stream_sessions",
		"flexsp_plan_after_close_seconds",
	} {
		if !strings.Contains(string(body), series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
	if t.Failed() {
		t.Fatalf("scrape:\n%s", body)
	}
}

// TestStreamConcurrentAppendHTTP drives one session from many clients at
// once (run with -race): the last append starts the background solve, and a
// final close follows.
func TestStreamConcurrentAppendHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	lens := make([]int, 0, 4*len(testBatch))
	for i := 0; i < 4; i++ {
		lens = append(lens, testBatch...)
	}
	id := openStream(t, ts.URL, StreamOpenRequest{Expect: len(lens)})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(lens); i += 4 {
				resp, body := postStream(t, ts.URL, "/v2/stream/"+id+"/append", StreamAppendRequest{Lengths: []int{lens[i]}})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("append: status %d body %s", resp.StatusCode, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	resp, body := postStream(t, ts.URL, "/v2/stream/"+id+"/close", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close: status %d body %s", resp.StatusCode, body)
	}
	var env PlanEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Stream == nil || env.Stream.Appended != len(lens) {
		t.Fatalf("close stream stats: %s", body)
	}
	if got := len(env.Plans()); got == 0 {
		t.Fatal("close returned no plans")
	}
}

func TestStreamCloseExplain(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := openStream(t, ts.URL, StreamOpenRequest{Expect: len(testBatch)})
	postStream(t, ts.URL, "/v2/stream/"+id+"/append", StreamAppendRequest{Lengths: testBatch})
	resp, body := postStream(t, ts.URL, "/v2/stream/"+id+"/close", StreamCloseRequest{Explain: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close: status %d body %s", resp.StatusCode, body)
	}
	var env PlanEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Explain == nil {
		t.Fatalf("close with explain returned no provenance: %s", body)
	}
}

func TestStreamOpenEchoesPolicy(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postStream(t, ts.URL, "/v2/stream/open", StreamOpenRequest{Expect: 32})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open: status %d body %s", resp.StatusCode, body)
	}
	var open StreamOpenResponse
	if err := json.Unmarshal(body, &open); err != nil {
		t.Fatal(err)
	}
	if open.Session == "" || open.Expect != 32 {
		t.Fatalf("open response: %+v", open)
	}
}
