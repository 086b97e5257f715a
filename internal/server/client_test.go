// Client error-path coverage: StatusError decoding, the Overloaded
// classification, and context cancellation mid-request. These drive
// flexsp.Client against handler stubs and a real daemon.
package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"flexsp"
	"flexsp/internal/server"
)

// errorServer answers every request with the given status and body.
func errorServer(t *testing.T, status int, body string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write([]byte(body))
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestClientStatusErrorDecoding(t *testing.T) {
	ctx := context.Background()

	// A JSON error body is decoded into the StatusError message.
	ts := errorServer(t, http.StatusTooManyRequests, `{"error":"queue full"}`)
	_, err := flexsp.NewClient(ts.URL).Plan(ctx, flexsp.PlanRequest{Lengths: []int{1024}})
	var se *flexsp.StatusError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StatusError", err)
	}
	if se.Status != http.StatusTooManyRequests || se.Message != "queue full" {
		t.Fatalf("StatusError = %+v", se)
	}
	if !se.Overloaded() {
		t.Fatal("429 should classify as Overloaded")
	}

	// 503 (draining) is an error but not the retry-later overload case.
	ts2 := errorServer(t, http.StatusServiceUnavailable, `{"error":"server is draining"}`)
	_, err = flexsp.NewClient(ts2.URL).Plan(ctx, flexsp.PlanRequest{Lengths: []int{1024}})
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StatusError", err)
	}
	if se.Overloaded() {
		t.Fatal("503 must not classify as Overloaded")
	}
	if se.Message != "server is draining" {
		t.Fatalf("message = %q", se.Message)
	}

	// A non-JSON error body falls back to the HTTP status line.
	ts3 := errorServer(t, http.StatusInternalServerError, "boom")
	_, err = flexsp.NewClient(ts3.URL).Plan(ctx, flexsp.PlanRequest{Lengths: []int{1024}})
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StatusError", err)
	}
	if !strings.Contains(se.Message, "500") {
		t.Fatalf("fallback message %q does not carry the status line", se.Message)
	}
}

func TestClientDecodeError(t *testing.T) {
	ts := errorServer(t, http.StatusOK, "{not json")
	_, err := flexsp.NewClient(ts.URL).Plan(context.Background(), flexsp.PlanRequest{Lengths: []int{1024}})
	if err == nil || !strings.Contains(err.Error(), "decoding response") {
		t.Fatalf("err = %v, want a decoding error", err)
	}
}

func TestClientContextCancellationMidRequest(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		// Hold the response until the client gives up (or the test ends, so
		// the handler never outlives ts.Close).
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer ts.Close()
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := flexsp.NewClient(ts.URL).Plan(ctx, flexsp.PlanRequest{Lengths: []int{1024}})
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client did not return after cancellation")
	}
}

// TestClientOverloadAgainstRealDaemon drives the real admission path: a
// one-slot daemon with a long batching window refuses the second concurrent
// request with a retryable StatusError.
func TestClientOverloadAgainstRealDaemon(t *testing.T) {
	sys, err := flexsp.NewSystem(flexsp.Config{
		Devices: 8,
		Serve:   flexsp.ServeConfig{QueueLimit: 1, BatchWindow: 400 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := sys.NewServer()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	client := flexsp.NewClient(ts.URL)
	ctx := context.Background()
	first := make(chan error, 1)
	go func() {
		_, err := client.Plan(ctx, flexsp.PlanRequest{Lengths: []int{1024, 2048, 4096}})
		first <- err
	}()
	// Wait until the first request holds the only admission slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("first request never admitted")
		}
		var m server.MetricsResponse
		raw, err := http.Get(ts.URL + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(raw.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		raw.Body.Close()
		if m.QueueDepth >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	_, err = client.Plan(ctx, flexsp.PlanRequest{Lengths: []int{512, 768}})
	var se *flexsp.StatusError
	if !errors.As(err, &se) || !se.Overloaded() {
		t.Fatalf("second request err = %v, want a retryable StatusError", err)
	}
	if err := <-first; err != nil {
		t.Fatalf("first request failed: %v", err)
	}
}
