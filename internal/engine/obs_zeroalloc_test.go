package engine

import (
	"testing"

	"quetzal/internal/trace"
)

// TestObsDisabledZeroAlloc is ISSUE 4's acceptance guard: with the
// observability layer disabled (no EventLog sink, no observers — exactly
// what a run without -trace/-metrics wires up), the steady-state engine
// loop must allocate nothing per step, including across brownout/poweron
// transitions and capture activity, both of which pass through logf call
// sites. New attaches the obs sinks (exporter, metrics observer) only when
// Config names them, so "disabled" here is the nil pipeline New builds from
// nil sinks and ChecksOff — asserted below, not assumed; the enabled path's
// cost is measured by BenchmarkObs* in internal/obs and recorded in
// BENCH_obs.json.
func TestObsDisabledZeroAlloc(t *testing.T) {
	cfg := testConfig(t, nil, nil)
	// Events drive arrivals, scheduling, classification and transmission —
	// every logf site on the decision path — while the low square wave
	// forces brownout/poweron cycles through the power-transition sites.
	cfg.Events = &trace.EventTrace{Events: []trace.Event{{Start: 0, Duration: 3600, Interesting: true}}}
	cfg.Power = trace.SquareWave{High: 0.05, Low: 0.002, Period: 2, Duty: 0.5}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.cfg.EventLog != nil || m.exporter != nil || len(m.observers) != 0 {
		t.Fatalf("New wired instrumentation from nil sinks and ChecksOff: event log %v, exporter %v, %d observers",
			m.cfg.EventLog != nil, m.exporter != nil, len(m.observers))
	}
	const dt = 0.001
	step := 0
	run := func() {
		m.now = float64(step) * dt
		m.Step(dt)
		m.now = float64(step+1) * dt
		m.EndStep(dt)
		step++
	}
	for i := 0; i < 5000; i++ { // warm up: first captures, first jobs, first brownouts
		run()
	}
	if allocs := testing.AllocsPerRun(5000, run); allocs != 0 {
		t.Errorf("engine loop with obs disabled allocates %.4f per step, want 0", allocs)
	}
}
