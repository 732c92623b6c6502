// Package obs is the observability layer: a lightweight metrics registry
// (counters, gauges, fixed-layout histograms — no external dependencies), a
// streaming exporter that renders the engine's discrete-event stream as
// Chrome trace_event JSON and as a JSONL event log, and the CLI plumbing
// the binaries share (-trace/-metrics/-pprof).
//
// The layer is strictly opt-in and provably cheap when off: engine.New
// attaches an exporter or metrics observer only when engine.Config names a
// sink, so a run with no obs sinks pays the engine's bare observer pipeline
// (zero allocations in steady state, pinned by engine.TestObsDisabledZeroAlloc
// and measured in BENCH_obs.json).
// When enabled, the trace exporter consumes the same event-log stream the
// golden-trace regression fingerprints, so exports are deterministic and
// themselves pinned by sha256 fixtures (internal/sim/golden_trace_test.go).
package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. Safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return floatFromBits(g.bits.Load()) }

// Registry is a process-local metrics registry. Metric handles are created
// on first use and live for the registry's lifetime, so hot paths resolve
// their handles once up front and then pay only an atomic op (or a short
// histogram critical section) per update.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given layout
// on first use. Asking for an existing histogram with a different layout is
// a programming error and panics.
func (r *Registry) Histogram(name string, layout Layout) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(layout)
		r.hists[name] = h
	} else if !h.layout.Equal(layout) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with a different layout", name))
	}
	return h
}

// AddHistogram registers an externally built histogram (e.g. a runner
// ledger's latency histogram) under name, replacing any previous entry.
func (r *Registry) AddHistogram(name string, h *Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hists[name] = h
}

// WriteText renders every metric in a Prometheus-style text format, sorted
// by name so the dump is deterministic.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, r.counters[n].Value()); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", n, n, r.gauges[n].Value()); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := r.hists[n].writeText(w, n); err != nil {
			return err
		}
	}
	return nil
}

// ServeHTTP renders the registry in the text format, so a registry mounts
// directly as a /metrics endpoint. The dump is buffered first: a mid-render
// failure becomes a clean 500 instead of a torn 200 body.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		http.Error(w, "metrics: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes()) //nolint:errcheck // client disconnects are not actionable
}
