// Package sim is a thin wrapper over internal/engine. It exists for the
// public quetzal.Simulator type, for the perfbench module and for its own
// tests; new code builds an engine.Config and calls engine.New directly.
// Config and the enums are aliases of their engine counterparts, and
// Simulator forwards to one engine.Machine.
package sim

import (
	"context"

	"quetzal/internal/buffer"
	"quetzal/internal/energy"
	"quetzal/internal/engine"
	"quetzal/internal/invariant"
	"quetzal/internal/metrics"
)

// Config describes one simulation run; see engine.Config.
type Config = engine.Config

// CheckMode selects whether the invariant checker runs; see engine.CheckMode.
type CheckMode = engine.CheckMode

// Invariant-checker modes; see engine.ChecksAuto.
const (
	ChecksAuto = engine.ChecksAuto
	ChecksOff  = engine.ChecksOff
)

// EngineKind selects the time-advance loop; see engine.Kind.
type EngineKind = engine.Kind

// Engine kinds; see engine.FixedIncrement.
const (
	FixedIncrement = engine.FixedIncrement
	EventDriven    = engine.EventDriven
	Lockstep       = engine.Lockstep
)

// CheckpointPolicy selects the intermittent-computing progress model; see
// engine.CheckpointPolicy.
type CheckpointPolicy = engine.CheckpointPolicy

// Checkpoint policies; see engine.JITCheckpoint.
const (
	JITCheckpoint      = engine.JITCheckpoint
	NoCheckpoint       = engine.NoCheckpoint
	PeriodicCheckpoint = engine.PeriodicCheckpoint
)

// Simulator executes one configured run. Construct with New.
type Simulator struct {
	m *engine.Machine
}

// New validates the configuration and builds a Simulator (engine.New).
func New(cfg Config) (*Simulator, error) {
	m, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Simulator{m: m}, nil
}

// Run executes the configured simulation and returns its results.
func (s *Simulator) Run() (metrics.Results, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation; see engine.Machine.Run.
func (s *Simulator) RunContext(ctx context.Context) (metrics.Results, error) {
	return s.m.Run(ctx)
}

// RunIntoContext is RunContext through the engine's results-sink seam; see
// engine.Machine.RunInto.
func (s *Simulator) RunIntoContext(ctx context.Context, sink func(*metrics.Results)) error {
	return s.m.RunInto(ctx, sink)
}

// Machine exposes the underlying engine machine, for tests that hook or
// perturb the live device state.
func (s *Simulator) Machine() *engine.Machine { return s.m }

// Checker exposes the invariant checker for inspection in tests (nil when
// checks are off).
func (s *Simulator) Checker() *invariant.Checker { return s.m.Checker() }

// Results returns the accumulated results so far (useful mid-run in tests).
func (s *Simulator) Results() metrics.Results { return s.m.Results() }

// Buffer exposes the input buffer for inspection in tests.
func (s *Simulator) Buffer() *buffer.Buffer { return s.m.Buffer() }

// Store exposes the energy store for inspection in tests.
func (s *Simulator) Store() *energy.Store { return s.m.Store() }
