// Package sched implements Quetzal's Energy-aware Shortest-Job-First
// scheduling policy (paper §4.1, Algorithm 1) and the comparison policies
// from the evaluation (§6.1): First-Come-First-Served, Last-Come-First-
// Served, and capture-order processing.
//
// Energy-aware SJF selects the job with the smallest expected end-to-end
// service time E[S] = Σᵢ p(taskᵢ) · S_e2e(taskᵢ, P_in). What makes it
// energy-aware is the S_e2e estimate, which folds the energy-recharge time
// at the *current* input power into each task's latency; the estimate is
// supplied through the Estimator interface so that the same policy code can
// run against the hardware-module-backed estimator, the exact-division
// estimator, or the Avg-S_e2e baseline estimator.
package sched

import (
	"math"
	"slices"

	"quetzal/internal/buffer"
	"quetzal/internal/model"
)

// Estimator supplies the per-task quantities Algorithm 1 consumes. optIdx
// selects a degradation option (0 = highest quality).
type Estimator interface {
	// Se2e estimates the end-to-end service time in seconds of one task
	// option at the current input power.
	Se2e(jobID, taskIdx, optIdx int) float64
	// Probability estimates the task's execution probability within its
	// job (the tracked fraction of recent jobs in which the task ran).
	Probability(jobID, taskIdx int) float64
}

// ExpectedService computes E[S] for a job at the given quality assignment:
// the sum over tasks of execution probability × S_e2e. qualityFor returns
// the option index to cost each task at; passing nil costs every task at
// its highest quality (option 0).
func ExpectedService(job *model.Job, est Estimator, qualityFor func(taskIdx int) int) float64 {
	sum := 0.0
	for i := range job.Tasks {
		opt := 0
		if qualityFor != nil {
			opt = qualityFor(i)
		}
		sum += est.Probability(job.ID, i) * est.Se2e(job.ID, i, opt)
	}
	return sum
}

// Decision is a scheduling outcome: which buffered input to process.
type Decision struct {
	BufferIndex int     // index into the buffer, -1 if nothing to schedule
	JobID       int     // job that will process the input
	ExpectedS   float64 // the policy's E[S] estimate for that job (0 if not computed)
}

// none is the empty decision.
var none = Decision{BufferIndex: -1, JobID: -1}

// Policy selects the next input to process from the buffer.
type Policy interface {
	Name() string
	Select(app *model.App, buf *buffer.Buffer, est Estimator) Decision
}

// EnergySJF is Algorithm 1: pick the job with minimal E[S]; break ties by
// older buffered input.
type EnergySJF struct{}

// Name implements Policy.
func (EnergySJF) Name() string { return "energy-sjf" }

// Select implements Policy.
func (EnergySJF) Select(app *model.App, buf *buffer.Buffer, est Estimator) Decision {
	if buf.Len() == 0 {
		return none
	}
	best := none
	bestES := math.Inf(1)
	bestAge := math.Inf(1) // CapturedAt of the candidate input; older wins ties
	// Candidates are the distinct buffered job IDs in first-appearance
	// order (buf.JobIDs' order, without its allocation). A valid app has at
	// most MaxTasks jobs, so the seen set stays on the stack.
	var seenArr [model.MaxTasks]int
	seen := seenArr[:0]
	for i := 0; i < buf.Len(); i++ {
		head, _ := buf.At(i)
		jobID := head.JobID
		if slices.Contains(seen, jobID) {
			continue
		}
		seen = append(seen, jobID)
		job := app.JobByID(jobID)
		if job == nil {
			continue // stale tag; let other jobs proceed
		}
		es := ExpectedService(job, est, nil)
		idx := buf.OldestForJob(jobID)
		in, err := buf.At(idx)
		if err != nil {
			continue
		}
		if es < bestES || (es == bestES && in.CapturedAt < bestAge) {
			bestES = es
			bestAge = in.CapturedAt
			best = Decision{BufferIndex: idx, JobID: jobID, ExpectedS: es}
		}
	}
	return best
}

// FCFS processes inputs in queue order (oldest enqueue first) — the order a
// NoAdapt system uses (§6.2: "The NoAdapt system processed each stored image
// in the order they were captured").
type FCFS struct{}

// Name implements Policy.
func (FCFS) Name() string { return "fcfs" }

// Select implements Policy.
func (FCFS) Select(app *model.App, buf *buffer.Buffer, est Estimator) Decision {
	in, err := buf.Peek()
	if err != nil {
		return none
	}
	return Decision{BufferIndex: 0, JobID: in.JobID, ExpectedS: expectedIfPossible(app, in.JobID, est)}
}

// LCFS processes the most recently enqueued input first.
type LCFS struct{}

// Name implements Policy.
func (LCFS) Name() string { return "lcfs" }

// Select implements Policy.
func (LCFS) Select(app *model.App, buf *buffer.Buffer, est Estimator) Decision {
	n := buf.Len()
	if n == 0 {
		return none
	}
	in, err := buf.At(n - 1)
	if err != nil {
		return none
	}
	return Decision{BufferIndex: n - 1, JobID: in.JobID, ExpectedS: expectedIfPossible(app, in.JobID, est)}
}

// CaptureOrder processes the input with the oldest capture time, regardless
// of which job it awaits (Fig 12's "processing inputs in the same order as
// they are captured").
type CaptureOrder struct{}

// Name implements Policy.
func (CaptureOrder) Name() string { return "capture-order" }

// Select implements Policy.
func (CaptureOrder) Select(app *model.App, buf *buffer.Buffer, est Estimator) Decision {
	n := buf.Len()
	if n == 0 {
		return none
	}
	bestIdx := 0
	best, _ := buf.At(0)
	for i := 1; i < n; i++ {
		in, _ := buf.At(i)
		if in.CapturedAt < best.CapturedAt {
			best, bestIdx = in, i
		}
	}
	return Decision{BufferIndex: bestIdx, JobID: best.JobID, ExpectedS: expectedIfPossible(app, best.JobID, est)}
}

func expectedIfPossible(app *model.App, jobID int, est Estimator) float64 {
	if est == nil {
		return 0
	}
	job := app.JobByID(jobID)
	if job == nil {
		return 0
	}
	return ExpectedService(job, est, nil)
}
