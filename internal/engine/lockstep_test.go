package engine

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"quetzal/internal/baseline"
	"quetzal/internal/device"
	"quetzal/internal/energy"
	"quetzal/internal/metrics"
	"quetzal/internal/trace"
)

// lockstepScenario is one workload the lockstep stepper must reproduce
// bit-for-bit against the event stepper: same event-log stream, same
// results, field for field.
type lockstepScenario struct {
	name  string
	power trace.PowerTrace
	store func(*energy.StoreConfig)
	// replay: +1 the crawl replay must engage, -1 it must stay off, 0 either
	// way (the bit-identity check is what matters on every scenario).
	replay int
}

func lockstepScenarios() []lockstepScenario {
	solar := trace.GenerateSolar(trace.DefaultSolarConfig(500, 7))
	return []lockstepScenario{
		{name: "bench-square", replay: 1,
			power: trace.SquareWave{High: 0.05, Low: 0.004, Period: 60, Duty: 0.5}},
		{name: "constant-starved", replay: 1,
			power: trace.Constant{P: 0.003}},
		{name: "constant-rich", replay: -1,
			power: trace.Constant{P: 0.5}},
		// A solar run rarely pins the store at the floor with captures
		// pending (starved phases brown the device out instead, where
		// segments are long); replay engagement is workload-dependent here.
		{name: "solar-sampled", power: solar},
		{name: "scaled-square", replay: 1,
			power: trace.Scaled{Base: trace.SquareWave{High: 0.06, Low: 0.002, Period: 45, Duty: 0.4}, Factor: 0.7}},
		{name: "leaky-store", replay: -1,
			power: trace.SquareWave{High: 0.05, Low: 0.004, Period: 60, Duty: 0.5},
			store: func(sc *energy.StoreConfig) { sc.LeakagePower = 0.0005 }},
	}
}

// lockstepConfig builds the shared test workload (the bench scenario's 20
// events) over the given power trace.
func lockstepConfig(t testing.TB, sc lockstepScenario) Config {
	t.Helper()
	prof := device.Apollo4()
	events := &trace.EventTrace{}
	at := 10.0
	for i := 0; i < 20; i++ {
		events.Events = append(events.Events, trace.Event{Start: at, Duration: 10, Interesting: true})
		at += 20
	}
	app := prof.PersonDetectionApp()
	ctl, err := baseline.NoAdapt(app)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Profile: prof, App: app, Controller: ctl,
		Power: sc.power, Events: events,
		Seed: 42,
	}
	if sc.store != nil {
		store := energy.DefaultConfig()
		sc.store(&store)
		cfg.Store = store
	}
	return cfg
}

// runFingerprint executes one machine under the given stepper with the event
// log hashed, returning the stream digest and the results.
func runFingerprint(t testing.TB, cfg Config, s Stepper) (string, metrics.Results, *Machine) {
	t.Helper()
	h := sha256.New()
	w := bufio.NewWriter(h)
	cfg.EventLog = w
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil)), res, m
}

// TestLockstepBitIdentical pins the lockstep stepper's core contract: for
// every scenario the event-log stream and every results field are
// bit-identical to the event stepper's — the crawl replay may only commit
// steps whose outcomes are provably the ones the normal path would produce.
func TestLockstepBitIdentical(t *testing.T) {
	for _, sc := range lockstepScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			eventHash, eventRes, _ := runFingerprint(t, lockstepConfig(t, sc), EventStepper{})
			lockHash, lockRes, lm := runFingerprint(t, lockstepConfig(t, sc), StepperFor(Lockstep))
			if eventHash != lockHash {
				t.Errorf("event-log stream diverged: event %s vs lockstep %s", eventHash, lockHash)
			}
			// Empty tolerance: every field must match exactly.
			if diffs := metrics.Diff(eventRes, lockRes, metrics.Tolerance{}); len(diffs) > 0 {
				t.Errorf("results diverged:\n%v", diffs)
			}
			if sc.replay > 0 && lm.ReplayedSteps() == 0 {
				t.Errorf("crawl replay never engaged (want fast path active)")
			}
			if sc.replay < 0 && lm.ReplayedSteps() != 0 {
				t.Errorf("crawl replay engaged (%d steps) on a scenario that must take the normal path",
					lm.ReplayedSteps())
			}
		})
	}
}

// TestLockstepReplayDominates asserts the fast path carries the starved
// bench workload — the speedup mechanism, not just its correctness.
func TestLockstepReplayDominates(t *testing.T) {
	sc := lockstepScenarios()[0] // bench-square
	m, err := New(lockstepConfig(t, sc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(context.Background(), StepperFor(Lockstep)); err != nil {
		t.Fatal(err)
	}
	if m.ReplayedSteps() < 100000 {
		t.Fatalf("replayed %d steps, want ≥100000 on the crawl-heavy bench workload", m.ReplayedSteps())
	}
}

// TestLockstepObserverDisablesReplay: observers must see every step, so
// registering one forces the normal path (and results stay identical).
func TestLockstepObserverDisablesReplay(t *testing.T) {
	sc := lockstepScenarios()[0]
	m, err := New(lockstepConfig(t, sc))
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	m.Observe(FuncObserver{Step: func(*Machine, float64) { steps++ }})
	res, err := m.Run(context.Background(), StepperFor(Lockstep))
	if err != nil {
		t.Fatal(err)
	}
	if m.ReplayedSteps() != 0 {
		t.Fatalf("replay committed %d steps with an observer registered", m.ReplayedSteps())
	}
	if steps == 0 {
		t.Fatal("observer saw no steps")
	}
	_, eventRes, _ := runFingerprint(t, lockstepConfig(t, sc), EventStepper{})
	if diffs := metrics.Diff(eventRes, res, metrics.Tolerance{}); len(diffs) > 0 {
		t.Fatalf("observed lockstep run diverged from event run:\n%v", diffs)
	}
}

// pollCanceledCtx is a context whose Err turns non-nil after a fixed number
// of polls, so a test can land the cancellation on a chosen poll site. A
// StepHook cannot trigger the cancel mid-run: a hook disables the replay.
type pollCanceledCtx struct {
	context.Context
	after, polls int
}

func (c *pollCanceledCtx) Err() error {
	c.polls++
	if c.polls > c.after {
		return context.Canceled
	}
	return nil
}

// TestLockstepCancellation: both the main loop and the replay path must
// notice a canceled context promptly.
func TestLockstepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := New(lockstepConfig(t, lockstepScenarios()[0]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(ctx, StepperFor(Lockstep)); err == nil {
		t.Fatal("want cancellation error, got nil")
	}

	// On bench-square the first poll is the stride check at step 0 and the
	// second is the re-check right after the first bulk replay commit, so
	// canceling after one poll must stop the run inside the crawl.
	m, err = New(lockstepConfig(t, lockstepScenarios()[0]))
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(&pollCanceledCtx{Context: context.Background(), after: 1}, StepperFor(Lockstep))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want cancellation error, got %v", err)
	}
	if m.ReplayedSteps() == 0 {
		t.Fatal("run canceled before the replay committed any step")
	}
	if m.Now() >= m.Duration() {
		t.Fatalf("run reached its end (t=%g) despite the cancel", m.Now())
	}
	// The replay only ever leaves the machine in the crawl regime it
	// entered: a pending capture over an empty store.
	if m.PendingCaptures() == 0 || m.Store().UsableEnergy() > 0 {
		t.Fatalf("canceled at t=%g outside the crawl (pending %d, usable %g J): "+
			"the post-replay re-check did not fire", m.Now(), m.PendingCaptures(), m.Store().UsableEnergy())
	}
}

// BenchmarkEngineLockstep is the single-run lockstep figure on the shared
// bench workload (comparable to BenchmarkEngineEvent row for row).
func BenchmarkEngineLockstep(b *testing.B) { benchEngineRun(b, StepperFor(Lockstep)) }
