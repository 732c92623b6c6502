package engine

import (
	"context"
	"testing"

	"quetzal/internal/baseline"
	"quetzal/internal/device"
	"quetzal/internal/trace"
)

// benchEngineRun measures end-to-end runs of the shared benchmark workload:
// a duty-cycled square-wave harvest over 20 interesting events (460
// simulated seconds), the same scenario (including per-iteration app,
// controller, and machine construction) BENCH_engine.json's pre-refactor
// baseline was recorded with. No observers are registered: this is the bare
// machine + loop hot path.
func benchEngineRun(b *testing.B, kind Kind) {
	prof := device.Apollo4()
	events := &trace.EventTrace{}
	t := 10.0
	for i := 0; i < 20; i++ {
		events.Events = append(events.Events, trace.Event{Start: t, Duration: 10, Interesting: true})
		t += 20
	}
	power := trace.SquareWave{High: 0.05, Low: 0.004, Period: 60, Duty: 0.5}
	b.ReportAllocs()
	simulated := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app := prof.PersonDetectionApp()
		ctl, err := baseline.NoAdapt(app)
		if err != nil {
			b.Fatal(err)
		}
		m, err := New(Config{
			Profile: prof, App: app, Controller: ctl,
			Power: power, Events: events,
			Seed:   42,
			Engine: kind,
			Checks: ChecksOff,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		simulated += res.SimSeconds
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(simulated/sec, "sim-s/s")
	}
	if b.N > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/simulated, "ns/sim-s")
	}
}

func BenchmarkEngineFixed(b *testing.B) { benchEngineRun(b, FixedIncrement) }
func BenchmarkEngineEvent(b *testing.B) { benchEngineRun(b, EventDriven) }
