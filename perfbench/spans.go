package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"quetzal/internal/buffer"
	"quetzal/internal/core"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary. Spans of one device or request share ID; Parent indexes
// the enclosing span in the same lane (-1 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Lane   int    `json:"lane"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// lane is one goroutine's span log; only its owner appends to it.
type lane struct {
	t0    time.Time
	id    int
	spans []span
}

func (l *lane) begin(name string, id int64, parent int) int {
	l.spans = append(l.spans, span{Name: name, ID: id, Lane: l.id, Parent: parent, Start: int64(time.Since(l.t0))})
	return len(l.spans) - 1
}

func (l *lane) end(i int) { l.spans[i].End = int64(time.Since(l.t0)) }

// recorder owns every lane of one traced phase. Spans stay in memory until
// write.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	lanes []*lane
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// lane registers a new lane for one goroutine.
func (r *recorder) lane() *lane {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := &lane{t0: r.t0, id: len(r.lanes)}
	r.lanes = append(r.lanes, l)
	return l
}

// all returns every span; call only after the lanes' goroutines finished.
func (r *recorder) all() []span {
	var out []span
	for _, l := range r.lanes {
		out = append(out, l.spans...)
	}
	return out
}

// layerTime is a layer's span count, total and self time (total minus the
// part its direct children cover).
type layerTime struct {
	n           int
	total, self time.Duration
}

// selfTimes aggregates spans by name.
func (r *recorder) selfTimes() map[string]layerTime {
	out := map[string]layerTime{}
	for _, l := range r.lanes {
		child := make([]time.Duration, len(l.spans))
		for _, s := range l.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.dur()
			}
		}
		for i, s := range l.spans {
			t := out[s.Name]
			t.n++
			t.total += s.dur()
			t.self += s.dur() - child[i]
			out[s.Name] = t
		}
	}
	return out
}

// write stores every span as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range r.lanes {
		for _, s := range l.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedRun brackets a traced invocation: it starts a CPU profile in
// cfg.outDir and returns a finish function that stops the profile and
// writes the spans of rec beside it.
func tracedRun(cfg config) (finish func(rec *recorder) error, err error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(cfg.outDir, "cpu.pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, err
	}
	return func(rec *recorder) error {
		pprof.StopCPUProfile()
		if err := pf.Close(); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		spansPath := filepath.Join(cfg.outDir, "spans.jsonl")
		if err := rec.write(spansPath); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
		note("traced run wrote %s and %s", spansPath, profPath)
		return nil
	}, nil
}

// ctlStats accumulates one goroutine's controller time as counts and sums:
// a device makes thousands of calls, far too many for one span each.
type ctlStats struct {
	calls    int64         // NextJob calls
	nextJob  time.Duration // time inside NextJob
	other    time.Duration // time inside ObserveCapture and OnJobComplete
	nextHist nsHist
}

func (s *ctlStats) total() time.Duration { return s.nextJob + s.other }

// timedCtl forwards every core.Controller call and times the decision
// methods. Embedding the interface promotes only core.Controller's methods;
// the optional markers are forwarded by the variants below, chosen to match
// exactly what the wrapped controller implements.
type timedCtl struct {
	core.Controller
	st *ctlStats
}

func (c *timedCtl) NextJob(env core.Env, buf *buffer.Buffer) (core.Decision, bool) {
	t := time.Now()
	d, ok := c.Controller.NextJob(env, buf)
	dt := time.Since(t)
	c.st.calls++
	c.st.nextJob += dt
	c.st.nextHist.add(dt)
	return d, ok
}

func (c *timedCtl) ObserveCapture(stored bool) {
	t := time.Now()
	c.Controller.ObserveCapture(stored)
	c.st.other += time.Since(t)
}

func (c *timedCtl) OnJobComplete(fb core.Feedback) {
	t := time.Now()
	c.Controller.OnJobComplete(fb)
	c.st.other += time.Since(t)
}

type timedRS struct{ *timedCtl }

func (c timedRS) ReplaySensitive() bool {
	return c.Controller.(core.ReplaySensitive).ReplaySensitive()
}

type timedTA struct{ *timedCtl }

func (c timedTA) SetTemperature(tempC float64) {
	c.Controller.(core.TemperatureAware).SetTemperature(tempC)
}

type timedRSTA struct{ *timedCtl }

func (c timedRSTA) ReplaySensitive() bool {
	return c.Controller.(core.ReplaySensitive).ReplaySensitive()
}

func (c timedRSTA) SetTemperature(tempC float64) {
	c.Controller.(core.TemperatureAware).SetTemperature(tempC)
}

// wrapController times ctl into st, implementing core.ReplaySensitive and
// core.TemperatureAware exactly when ctl does, so the engine's lockstep
// replay gate and temperature propagation see the same controller.
func wrapController(ctl core.Controller, st *ctlStats) core.Controller {
	t := &timedCtl{Controller: ctl, st: st}
	_, rs := ctl.(core.ReplaySensitive)
	_, ta := ctl.(core.TemperatureAware)
	switch {
	case rs && ta:
		return timedRSTA{t}
	case rs:
		return timedRS{t}
	case ta:
		return timedTA{t}
	}
	return t
}
