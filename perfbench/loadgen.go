package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one open-loop request. Latency counts from due, the moment the
// schedule wanted the request sent, so a stall that backs requests up on
// busy connections is charged to every request it delays.
type sample struct {
	conn            int
	due, sent, done time.Time
	// late is the generator's own lateness: how long after both the due
	// time and its connection becoming free the request actually went out.
	late time.Duration
	err  error
}

func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// openLoop sends n requests due at start + i/rate over conns connections,
// at most one in flight per connection, in due order. A request whose due
// time passes while every connection is busy waits for the first free one.
// Each call to send gets its own timeout.
func openLoop(ctx context.Context, n int, rate float64, conns int, timeout time.Duration,
	send func(ctx context.Context, i int) error) []sample {
	out := make([]sample, n)
	period := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			free := start
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(i) * period)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				s := sample{conn: c, due: due, sent: time.Now()}
				ready := due
				if free.After(ready) {
					ready = free
				}
				s.late = s.sent.Sub(ready)
				rctx, cancel := context.WithTimeout(ctx, timeout)
				s.err = send(rctx, i)
				cancel()
				s.done = time.Now()
				free = s.done
				out[i] = s
			}
		}(c)
	}
	wg.Wait()
	return out
}

// statusError is a completed HTTP exchange outside 2xx.
type statusError struct{ code int }

func (e statusError) Error() string { return fmt.Sprintf("HTTP %d", e.code) }

// do performs one request and returns the body of a 2xx response. Anything
// else — 429, 5xx, any other status, a transport error or the context's
// timeout — is an error, so it counts as a failed operation.
func do(ctx context.Context, client *http.Client, method, url string, body io.Reader) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, statusError{resp.StatusCode}
	}
	return b, nil
}

// loadStats summarizes an open-loop run.
type loadStats struct {
	attempted, failed int
	okPerSec          float64
	latencyMs         []float64 // from due; +Inf for failed requests
	lateMs            []float64
}

// summarize counts failures against attempts and collects latencies. A
// failed request misses any latency limit, so its latency is +Inf.
func summarize(samples []sample) loadStats {
	var st loadStats
	var first, last time.Time
	for i, s := range samples {
		if s.sent.IsZero() {
			continue // never sent: the run was cancelled
		}
		st.attempted++
		if i == 0 || s.due.Before(first) {
			first = s.due
		}
		if s.done.After(last) {
			last = s.done
		}
		st.lateMs = append(st.lateMs, ms(s.late))
		if s.err != nil {
			st.failed++
			st.latencyMs = append(st.latencyMs, math.Inf(1))
			continue
		}
		st.latencyMs = append(st.latencyMs, ms(s.latency()))
	}
	if span := last.Sub(first).Seconds(); span > 0 {
		st.okPerSec = float64(st.attempted-st.failed) / span
	}
	return st
}

// errorRate is failed ÷ attempted.
func (st loadStats) errorRate() float64 {
	if st.attempted == 0 {
		return 0
	}
	return float64(st.failed) / float64(st.attempted)
}
