// Package engine is the simulator (the paper's §6.3): one Config describes a
// run and New assembles it. The code is split into three layers, so that new
// scenarios, time-advance loops and instrumentation compose instead of
// multiplying:
//
//   - Machine is the pure device state machine: energy store draw/charge/
//     restart, brownout and checkpoint policy, the always-on capture
//     pipeline, input-buffer arrivals, and controller invocation. It knows
//     how to advance across one step of any length (Step), but nothing
//     about how step lengths are chosen.
//
//   - Two time-advance loops, selected by Config.Engine. The fixed loop is
//     the paper's §6.3 reference (constant 1 ms increments); the event
//     loop advances in variable piecewise-linear segments bounded by the
//     next discrete event and runs ~50–200× faster with statistically
//     matching results. Both drive the same Machine transition, so the
//     physics cannot diverge between engines by construction. The Lockstep
//     kind is the event loop with the crawl replay on (lockstep.go). A new
//     loop is a new Kind plus a run* method on Machine.
//
//   - Observer is the instrumentation pipeline: registered observers are
//     invoked from one site after every committed step (EndStep) and once
//     at end of run. The timeline CSV writer, the metrics sampler and the
//     internal/invariant checker are observers, wired by New from Config;
//     the hot path pays zero allocations when no observer is registered.
//
// Package sim keeps a thin Simulator wrapper over Machine for the public
// quetzal API.
package engine

import "fmt"

// Kind selects the time-advance loop (Config.Engine).
type Kind int

const (
	// FixedIncrement advances in constant StepDt steps — the paper's §6.3
	// simulator and the reference semantics.
	FixedIncrement Kind = iota
	// EventDriven advances in variable-length segments bounded by the next
	// discrete event (capture tick, activity completion, store threshold
	// crossing, observer horizon). Within such a segment the step dynamics
	// are piecewise-linear, so the same Step transition applies exactly;
	// runs are typically 50–200× faster with statistically matching
	// results (validated in internal/simgen's differential oracle). Use it
	// for large sweeps; use FixedIncrement for the paper-faithful
	// reference.
	EventDriven
	// Lockstep is the EventDriven loop with the crawl replay on. It commits
	// the exact same segment sequence as EventDriven (the event stream and
	// results are bit-identical — pinned by golden parity and the exact
	// event↔lockstep oracle), but detects fixed-point "crawl" regimes — a
	// store pinned at the brown-out floor with a pending capture, advancing
	// in minSegment steps — and commits them as runs of constant-addend
	// updates instead of full segment/step dispatch. See DESIGN.md §13.
	Lockstep
)

// String names the engine kind. The public name of this type through the
// quetzal API is EngineKind, which the unknown-value form preserves.
func (k Kind) String() string {
	switch k {
	case FixedIncrement:
		return "fixed-increment"
	case EventDriven:
		return "event-driven"
	case Lockstep:
		return "lockstep"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(k))
	}
}

// CheckpointPolicy selects the intermittent-computing progress model.
type CheckpointPolicy int

const (
	// JITCheckpoint saves state just in time before the power failure:
	// progress is fully preserved, and only the restore cost is paid on
	// resume (the paper's simulator, citing [8, 9, 47, 61, 64]).
	JITCheckpoint CheckpointPolicy = iota
	// NoCheckpoint loses the current task's progress on every power
	// failure: the task restarts from scratch after the restore.
	NoCheckpoint
	// PeriodicCheckpoint saves progress every CheckpointInterval seconds
	// of execution, paying the restore-equivalent cost per checkpoint; a
	// power failure rolls back to the last checkpoint.
	PeriodicCheckpoint
)

// String names the policy.
func (p CheckpointPolicy) String() string {
	switch p {
	case JITCheckpoint:
		return "jit"
	case NoCheckpoint:
		return "none"
	case PeriodicCheckpoint:
		return "periodic"
	default:
		return fmt.Sprintf("CheckpointPolicy(%d)", int(p))
	}
}
