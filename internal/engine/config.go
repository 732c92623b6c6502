package engine

import (
	"fmt"
	"io"

	"quetzal/internal/device"
	"quetzal/internal/energy"
	"quetzal/internal/faults"
	"quetzal/internal/model"
	"quetzal/internal/obs"
	"quetzal/internal/policy"
	"quetzal/internal/trace"

	"quetzal/internal/core"
)

// Config describes one simulation run: the device scenario, the
// time-advance loop (Engine) and the instrumentation sinks New wires up
// (timeline, invariant checks, event log, trace export, metrics).
type Config struct {
	Profile device.Profile
	App     *model.App // nil → Profile.PersonDetectionApp()
	// Controller is the decision-making brain. Alternatively set Policy to a
	// registered policy name (internal/policy) and normalize builds the
	// controller — exactly one of the two must be provided.
	Controller core.Controller
	Policy     string

	Power  trace.PowerTrace
	Events *trace.EventTrace

	Store energy.StoreConfig // zero → energy.DefaultConfig()

	// Engine selects the time-advance loop: the paper's fixed 1 ms
	// increments (default, reference semantics), the event-driven fast
	// path, or the event loop with the crawl replay on (see Kind).
	Engine Kind

	CapturePeriod  float64 // seconds between captures; default 1 (1 FPS)
	StepDt         float64 // fixed-increment step; default 0.001 (1 ms)
	Duration       float64 // simulated seconds; 0 → events end + DrainTime
	DrainTime      float64 // extra time after the last event; default 60 s
	BufferCapacity int     // 0 → Profile.BufferCapacity

	Seed int64 // classifier coin flips

	// Checkpoint selects how execution progress survives power failures;
	// the default is the paper's JIT checkpointing (§6.3). Atomic tasks
	// always restart regardless of policy.
	Checkpoint CheckpointPolicy
	// CheckpointInterval is the progress between periodic checkpoints in
	// seconds (PeriodicCheckpoint only; default 1 s).
	CheckpointInterval float64

	// TexeJitterOverride, when positive, applies the given fractional
	// latency jitter to every task option (the §8 variable-execution-cost
	// extension) regardless of the options' own TexeJitter.
	TexeJitterOverride float64

	// Timeline, when non-nil, receives one CSV row per TimelineInterval of
	// simulated time: time, input power, store energy, buffer occupancy,
	// device state. For plotting and debugging.
	Timeline         io.Writer
	TimelineInterval float64 // default 1 s

	// Checks toggles the runtime invariant checker (internal/invariant):
	// energy-store bounds and conservation, buffer bounds, monotonic time,
	// and end-of-run accounting identities, verified every step/segment.
	// The default (ChecksAuto) enables it, so every test and experiment
	// pays the invariant tax; benchmarks and fleets opt out with ChecksOff.
	Checks CheckMode

	// EventLog, when non-nil, receives one line per discrete simulation
	// event (capture, arrival, IBO drop, scheduling decision, classify
	// verdict, transmission, job completion/abort, power transitions,
	// checkpoint/rollback, PID update). The golden-trace regression layer
	// hashes this stream to fingerprint a run's full behavior; it is also
	// readable for debugging. The log is part of the machine, not an
	// observer, because its lines are emitted at the discrete events
	// themselves, interleaved within a step.
	EventLog io.Writer

	// Trace, when non-nil, receives the run rendered as Chrome trace_event
	// JSON (load in chrome://tracing or Perfetto); TraceJSONL receives the
	// same events as JSON objects, one per line. Both are derived from the
	// event-log stream by an obs.Exporter, which also audits it: a dropped
	// or reordered event fails the run at the end.
	Trace      io.Writer
	TraceJSONL io.Writer

	// Metrics, when non-nil, collects run metrics: per-step samples (step
	// lengths, store level, buffer occupancy) and the end-of-run
	// aggregates. Dump with Registry.WriteText.
	Metrics *obs.Registry

	Environment string // label copied into the results

	// Faults declares the hardware-realism scenario (internal/faults):
	// transient task faults, harvester dropout windows, ADC stuck bits,
	// per-sample measurement cost and junction temperature. The zero value
	// is ideal hardware and costs nothing in the hot path.
	Faults faults.Spec
	// FaultSeed seeds the fault draws. 0 derives it from Seed
	// (faults.DeriveSeed); fleets pass a shard-independent split seed
	// instead so re-sharding replays identical faults.
	FaultSeed int64
}

// CheckMode selects whether the invariant checker runs.
type CheckMode int

const (
	// ChecksAuto (the zero value) enables the invariant checker.
	ChecksAuto CheckMode = iota
	// ChecksOff disables it — for hot benchmark loops and fleets.
	ChecksOff
)

// normalize validates the configuration and fills in defaults, in place.
func (cfg *Config) normalize() error {
	switch cfg.Engine {
	case FixedIncrement, EventDriven, Lockstep:
	default:
		return fmt.Errorf("engine: unknown engine kind %v", cfg.Engine)
	}
	if cfg.Controller != nil && cfg.Policy != "" {
		return fmt.Errorf("engine: Controller and Policy are mutually exclusive (got both)")
	}
	if cfg.Power == nil {
		return fmt.Errorf("engine: Power trace is required")
	}
	if cfg.Events == nil {
		return fmt.Errorf("engine: Events trace is required")
	}
	if err := cfg.Events.Validate(); err != nil {
		return err
	}
	if cfg.App == nil {
		cfg.App = cfg.Profile.PersonDetectionApp()
	}
	if err := cfg.App.Validate(); err != nil {
		return err
	}
	if cfg.Store == (energy.StoreConfig{}) {
		cfg.Store = energy.DefaultConfig()
	}
	if cfg.CapturePeriod == 0 {
		cfg.CapturePeriod = 1
	}
	if cfg.CapturePeriod < 0 {
		return fmt.Errorf("engine: capture period must be positive, got %g", cfg.CapturePeriod)
	}
	if cfg.Controller == nil && cfg.Policy != "" {
		ctl, bufCap, err := policy.Build(cfg.Policy, policy.Context{
			App:           cfg.App,
			Power:         cfg.Power,
			Events:        cfg.Events,
			CapturePeriod: cfg.CapturePeriod,
		})
		if err != nil {
			return err
		}
		cfg.Controller = ctl
		if cfg.BufferCapacity == 0 && bufCap != 0 {
			cfg.BufferCapacity = bufCap
		}
	}
	if cfg.Controller == nil {
		return fmt.Errorf("engine: Controller or Policy is required")
	}
	if cfg.StepDt == 0 {
		cfg.StepDt = 0.001
	}
	if cfg.StepDt < 0 {
		return fmt.Errorf("engine: step must be positive, got %g", cfg.StepDt)
	}
	if cfg.DrainTime == 0 {
		cfg.DrainTime = 60
	}
	if cfg.Duration == 0 {
		cfg.Duration = cfg.Events.Duration() + cfg.DrainTime
	}
	if cfg.Duration <= 0 {
		return fmt.Errorf("engine: nothing to simulate (duration %g)", cfg.Duration)
	}
	if cfg.BufferCapacity == 0 {
		cfg.BufferCapacity = cfg.Profile.BufferCapacity
	}
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = 1
	}
	if cfg.CheckpointInterval < 0 {
		return fmt.Errorf("engine: checkpoint interval must be positive, got %g", cfg.CheckpointInterval)
	}
	if cfg.TexeJitterOverride < 0 || cfg.TexeJitterOverride > 1 {
		return fmt.Errorf("engine: jitter override must be in [0,1], got %g", cfg.TexeJitterOverride)
	}
	if cfg.BufferCapacity <= 0 {
		return fmt.Errorf("engine: buffer capacity must be positive, got %d", cfg.BufferCapacity)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return err
	}
	if cfg.Faults.DropoutDurS > 0 {
		// Layer the dropout mask here, once, so every stepper — including
		// lockstep's constant-window analysis — samples the same trace
		// object. Idempotent across re-normalisation: never re-wrap.
		if _, ok := cfg.Power.(faults.Dropout); !ok {
			cfg.Power = faults.Dropout{
				Base:   cfg.Power,
				Start:  float64(cfg.Faults.DropoutStartS),
				Dur:    float64(cfg.Faults.DropoutDurS),
				Period: float64(cfg.Faults.DropoutPeriodS),
			}
		}
	}
	if cfg.FaultSeed == 0 && cfg.Faults.Enabled() {
		cfg.FaultSeed = faults.DeriveSeed(cfg.Seed)
	}
	return nil
}
