package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// Requests due every 5 ms on two connections that each take 20 ms arrive at
// twice the capacity: the backlog grows, and latency from due must include
// it, while latency from send stays at the service time.
func TestLatencyFromDueIncludesBacklog(t *testing.T) {
	const (
		n       = 20
		service = 20 * time.Millisecond
	)
	samples := openLoop(context.Background(), n, 200, 2, time.Second, func(ctx context.Context, i int) error {
		time.Sleep(service)
		return nil
	})
	st := summarize(samples)
	if st.attempted != n || st.failed != 0 {
		t.Fatalf("attempted %d failed %d, want %d and 0", st.attempted, st.failed, n)
	}
	last := samples[n-1]
	// Ten rounds of two requests take ≥ 200 ms; the last request was due at
	// 95 ms, so it waited ≥ 105 ms before completing.
	if got := last.latency(); got < 100*time.Millisecond {
		t.Errorf("last request latency from due = %v, want ≥ 100ms (backlog)", got)
	}
	if fromSend := last.done.Sub(last.sent); fromSend > 3*service {
		t.Errorf("last request latency from send = %v, want about %v", fromSend, service)
	}
	for i, s := range samples {
		if s.latency() < service {
			t.Errorf("request %d latency %v below service time", i, s.latency())
		}
		// Backlog is not the generator's lateness.
		if s.late > 10*time.Millisecond {
			t.Errorf("request %d generator lateness %v", i, s.late)
		}
	}
}

// An idle system: requests are sent on time and latency is the service
// time.
func TestLatencyAtLowLoad(t *testing.T) {
	samples := openLoop(context.Background(), 5, 100, 2, time.Second, func(ctx context.Context, i int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	for i, s := range samples {
		if d := s.sent.Sub(s.due); d > 5*time.Millisecond {
			t.Errorf("request %d sent %v after due", i, d)
		}
		if l := s.latency(); l > 10*time.Millisecond {
			t.Errorf("request %d latency %v at low load", i, l)
		}
	}
}

// 429, 5xx, transport errors and timeouts all count as failed requests
// against the number attempted; 2xx do not.
func TestErrorRateCounting(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		code, _ := strconv.Atoi(r.URL.Query().Get("code"))
		if code == 0 {
			time.Sleep(200 * time.Millisecond) // slower than the client timeout
			code = 200
		}
		w.WriteHeader(code)
	}))
	defer srv.Close()
	client := srv.Client()
	// 200, 201, 429, 500, 503, timeout, transport error (closed port).
	urls := []string{
		srv.URL + "?code=200",
		srv.URL + "?code=201",
		srv.URL + "?code=429",
		srv.URL + "?code=500",
		srv.URL + "?code=503",
		srv.URL + "?code=0",
		"http://127.0.0.1:1/",
	}
	samples := openLoop(context.Background(), len(urls), 1000, 2, 50*time.Millisecond, func(ctx context.Context, i int) error {
		_, err := do(ctx, client, http.MethodGet, urls[i], nil)
		return err
	})
	st := summarize(samples)
	if st.attempted != 7 || st.failed != 5 {
		t.Fatalf("attempted %d failed %d, want 7 and 5", st.attempted, st.failed)
	}
	if got, want := st.errorRate(), 5.0/7; got != want {
		t.Errorf("error rate %v, want %v", got, want)
	}
	if !errors.Is(samples[5].err, context.DeadlineExceeded) {
		t.Errorf("request 5 error %v, want a timeout", samples[5].err)
	}
	for _, i := range []int{2, 3, 4} {
		if _, ok := samples[i].err.(statusError); !ok {
			t.Errorf("request %d error %v, want an HTTP status error", i, samples[i].err)
		}
	}
	// A failed request misses any latency limit.
	tail := tailOf(st.latencyMs)
	if tail.P != 100 || tail.Value < 1e300 {
		t.Errorf("tail of 7 samples with failures = %+v, want the +Inf maximum", tail)
	}
}
