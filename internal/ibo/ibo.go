// Package ibo implements Quetzal's IBO-detection and reaction engine
// (paper §4.2, Algorithm 2), completed with the queueing-theoretic
// stability condition the algorithm needs to act early.
//
// Detection has two parts:
//
//  1. The burst check, Algorithm 2 verbatim: the expected arrivals during
//     the scheduled job, λ·E[S], must not exceed the free buffer space
//     (Little's Law over the job's horizon).
//
//  2. The utilization check: Little's Law in steady state says the queue
//     diverges — guaranteeing an eventual overflow no matter how much
//     space is free today — whenever the total work per arriving input
//     exceeds the interarrival time, i.e. when
//
//     ρ = λ · Σ_jobs reach(job) · E[S](job) ≥ 1
//
//     where reach(job) is the probability an arriving input eventually
//     needs that job (1 for the entry job, the tracked spawn probability
//     for follow-up jobs). The paper's hardware/sim task costs are
//     multi-second, so its burst check fires with room to spare; with
//     sub-second tasks the burst check alone degenerates to a
//     full-buffer trigger (CatNap), and the utilization check is what
//     preserves the published behaviour.
//
// Reaction resolves a quality assignment for the whole spawn chain,
// leaves first: each job takes the highest-quality option that keeps ρ
// below 1 given the qualities already resolved downstream. Degradation
// therefore lands on the task where it buys the most sustainable
// throughput (typically the radio) before touching classifier quality,
// exactly the "degrade only as much as required" contract of §4.2. If no
// assignment stabilises the queue, every job runs its lowest-S_e2e option
// "in order to reduce E[N]".
//
// The runtime evaluates this at every scheduling point, so it keeps one
// Engine per app: NewEngine lays the app out once, and Engine.Decide
// reuses its scratch (a reach vector, an E[S] memo, the plan) without
// allocating. The chain-wide plan is internal to the engine; a Decision
// reports only the scheduled job's option.
package ibo

import (
	"quetzal/internal/model"
	"quetzal/internal/queueing"
	"quetzal/internal/sched"
)

// Input bundles what one engine evaluation needs.
type Input struct {
	App *model.App
	Est sched.Estimator
	// Lambda is the tracked input arrival rate (inputs/second).
	Lambda float64
	// FreeSlots is buffer_limit − current_occupancy.
	FreeSlots int
	// Capacity is buffer_limit. The utilization check is gated on the
	// queue actually building (occupancy ≥ 20 % of capacity): a diverging
	// arrival/service balance only matters once the buffer's slack can no
	// longer absorb the remaining burst, and sub-capacity occupancy is
	// exactly that slack.
	Capacity int
	// Correction is the PID output added to E[S] predictions (§4.3).
	Correction float64
	// SpawnProb returns the tracked probability that the given job's
	// completion spawns its follow-up job. Ignored for jobs that spawn
	// nothing. Nil means 1 (conservative).
	SpawnProb func(jobID int) float64
}

// Decision is the engine's output for one scheduled job.
type Decision struct {
	// IBOPredicted reports whether an overflow was predicted with every
	// job at its highest quality.
	IBOPredicted bool
	// Averted reports whether some quality assignment cleared both checks.
	Averted bool
	// OptionIdx is the selected option for the scheduled job's degradable
	// task (0 = highest quality).
	OptionIdx int
	// ExpectedS is the scheduled job's E[S] at the chosen quality,
	// including the PID correction.
	ExpectedS float64
}

// Decide runs the engine once for the scheduled job. Callers that decide
// repeatedly for one app keep an Engine instead.
func Decide(job *model.Job, in Input) Decision { return NewEngine(in.App).Decide(job, in) }

// jobInfo is one job's precomputed layout, indexed by its position in
// App.Jobs.
type jobInfo struct {
	job   *model.Job
	deg   int // degradable task index, -1 if none
	opts  int // options of the degradable task (1 if none)
	spawn int // position of the spawn target, -1 if none
	memo  int // offset of the job's options in the E[S] memo
}

// Engine evaluates Algorithm 2 for one app. NewEngine precomputes the app's
// layout (job positions, degradable tasks, spawn targets, the leaves-first
// order); Decide reuses per-decision scratch, so a warm Engine allocates
// nothing. Within one decision Est, Correction, λ and the spawn
// probabilities are fixed, so each job's reach and each (job, option) E[S]
// is computed at most once. An Engine is not safe for concurrent use, and it
// snapshots the app's shape: rebuild it if jobs, tasks or options change.
type Engine struct {
	app   *model.App
	jobs  []jobInfo
	order []int // leaves-first positions (spawn targets before spawners)
	entry int   // position of the entry job, -1 if undefined

	// Per-decision scratch.
	in      Input
	reach   []float64 // by position; valid when reachOK
	reachOK bool
	es      []float64 // E[S] memo, jobs[p].memo+opt; valid where esOK
	esOK    []bool
	plan    []int // option per position for the degradable task
}

// NewEngine builds the engine for app, which must have unique job IDs (as
// model.App.Validate enforces).
func NewEngine(app *model.App) *Engine {
	e := &Engine{app: app, jobs: make([]jobInfo, len(app.Jobs))}
	pos := func(id int) int {
		for p, j := range app.Jobs {
			if j.ID == id {
				return p
			}
		}
		return -1
	}
	memo := 0
	for p, j := range app.Jobs {
		ji := jobInfo{job: j, deg: j.DegradableTask(), opts: 1, spawn: -1, memo: memo}
		if ji.deg >= 0 {
			ji.opts = len(j.Tasks[ji.deg].Options)
		}
		if j.SpawnJobID != model.NoSpawn {
			ji.spawn = pos(j.SpawnJobID)
		}
		e.jobs[p] = ji
		memo += ji.opts
	}
	e.entry = pos(app.EntryJobID)

	// Leaves-first: a post-order walk of the entry chain puts spawn targets
	// before their spawners; jobs it misses follow in definition order.
	seen := make([]bool, len(app.Jobs))
	var walk func(p int)
	walk = func(p int) {
		if p < 0 || seen[p] {
			return
		}
		seen[p] = true
		walk(e.jobs[p].spawn)
		e.order = append(e.order, p)
	}
	walk(e.entry)
	for p := range app.Jobs {
		walk(p)
	}

	e.reach = make([]float64, len(app.Jobs))
	e.es = make([]float64, memo)
	e.esOK = make([]bool, memo)
	e.plan = make([]int, len(app.Jobs))
	return e
}

// Decide runs the engine for the scheduled job, which must be one of the
// engine app's jobs; in.App must be the engine's app.
func (e *Engine) Decide(job *model.Job, in Input) Decision {
	if in.App != e.app {
		panic("ibo: Engine.Decide input for a different app")
	}
	e.begin(in)
	p := e.position(job)
	esBest := e.jobES(p, 0)
	if !burstOverflow(in, esBest) && e.stable() {
		// No overflow at full quality: run the job undegraded.
		return Decision{ExpectedS: esBest}
	}
	e.resolvePlan()

	ji := &e.jobs[p]
	if ji.deg < 0 {
		// No degradable task: the prediction stands, quality is fixed.
		return Decision{IBOPredicted: true, ExpectedS: esBest}
	}
	// Escalate the scheduled job past the planned option until the burst
	// check clears, preferring the highest quality that does.
	for opt := e.plan[p]; opt < ji.opts; opt++ {
		if es := e.jobES(p, opt); !burstOverflow(in, es) {
			// The imminent (burst) overflow is averted at this option;
			// long-run stability is the plan's concern.
			return Decision{IBOPredicted: true, Averted: true, OptionIdx: opt, ExpectedS: es}
		}
	}
	// Nothing clears the burst check: lowest S_e2e reduces E[N].
	lowest := e.cheapestOpt(p)
	return Decision{IBOPredicted: true, OptionIdx: lowest, ExpectedS: e.jobES(p, lowest)}
}

// begin resets the per-decision scratch for a new input.
func (e *Engine) begin(in Input) {
	e.in = in
	e.reachOK = false
	clear(e.esOK)
	clear(e.plan)
}

// position returns the scheduled job's index in App.Jobs.
func (e *Engine) position(job *model.Job) int {
	for p := range e.jobs {
		if e.jobs[p].job == job {
			return p
		}
	}
	panic("ibo: scheduled job " + job.Name + " is not in the engine's app")
}

// jobES is the memoised jobES of the job at position p.
func (e *Engine) jobES(p, opt int) float64 {
	i := e.jobs[p].memo + opt
	if !e.esOK[i] {
		e.es[i] = jobES(e.in, e.jobs[p].job, opt)
		e.esOK[i] = true
	}
	return e.es[i]
}

// burstOverflow is Algorithm 2 line 6: λ·E[S] ≥ free slots.
func burstOverflow(in Input, es float64) bool {
	return in.Lambda*es >= float64(in.FreeSlots)
}

// jobES returns the job's probability-weighted E[S] with its degradable
// task at option opt, plus the PID correction, clamped non-negative.
func jobES(in Input, job *model.Job, opt int) float64 {
	di := job.DegradableTask()
	es := sched.ExpectedService(job, in.Est, func(ti int) int {
		if ti == di {
			return opt
		}
		return 0
	}) + in.Correction
	if es < 0 {
		return 0
	}
	return es
}

// spawnProb returns the tracked spawn probability for a job.
func (in Input) spawnProb(jobID int) float64 {
	if in.SpawnProb == nil {
		return 1
	}
	p := in.SpawnProb(jobID)
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// reachProbs fills e.reach: for every job, the probability that an arriving
// input eventually requires it, following spawn edges from the entry job.
// Unreached jobs stay 0.
func (e *Engine) reachProbs() {
	clear(e.reach)
	if e.entry >= 0 {
		e.reach[e.entry] = 1
	}
	// Spawn chains are acyclic and short; walk until fixpoint.
	for i := 0; i < len(e.jobs); i++ {
		changed := false
		for p := range e.jobs {
			ji := &e.jobs[p]
			r := e.reach[p]
			if r == 0 || ji.spawn < 0 {
				continue
			}
			contrib := r * e.in.spawnProb(ji.job.ID)
			if contrib > e.reach[ji.spawn] {
				e.reach[ji.spawn] = contrib
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	e.reachOK = true
}

// utilization computes ρ = λ · Σ reach(job)·E[S](job@plan), summing in
// App.Jobs order.
func (e *Engine) utilization() float64 {
	if !e.reachOK {
		e.reachProbs()
	}
	total := 0.0
	for p := range e.jobs {
		r := e.reach[p]
		if r == 0 {
			continue
		}
		total += r * e.jobES(p, e.plan[p])
	}
	return queueing.Utilization(e.in.Lambda, total)
}

// stable reports whether the current plan keeps the queue stable. Below the
// occupancy gate the check passes trivially: the buffer still has slack to
// absorb a finite burst even if ρ ≥ 1.
func (e *Engine) stable() bool {
	occupancy := e.in.Capacity - e.in.FreeSlots
	if e.in.Capacity > 0 && occupancy*5 < e.in.Capacity {
		return true
	}
	return e.utilization() < 1
}

// resolvePlan picks the chain-wide quality assignment in e.plan, which
// begin zeroed: jobs are visited leaves-first (deepest spawn first) and each
// takes the highest-quality option that keeps ρ < 1 given what is already
// resolved. Reports whether a stable assignment exists; when none does,
// every degradable job is pinned to its lowest-S_e2e option.
func (e *Engine) resolvePlan() bool {
	if e.stable() {
		return true // full quality is sustainable
	}
	// Start from the most degraded state, then raise each job (leaves
	// first) to the best quality that keeps the system stable.
	for _, p := range e.order {
		if e.jobs[p].deg >= 0 {
			e.plan[p] = e.cheapestOpt(p)
		}
	}
	if !e.stable() {
		return false // even fully degraded the queue diverges
	}
	for _, p := range e.order {
		ji := &e.jobs[p]
		if ji.deg < 0 {
			continue
		}
		// Trial each option in place, restoring the resolved one if none
		// keeps the queue stable.
		resolved := e.plan[p]
		for opt := 0; opt < ji.opts; opt++ {
			e.plan[p] = opt
			if e.stable() {
				resolved = opt
				break
			}
		}
		e.plan[p] = resolved
	}
	return true
}

// cheapestOpt returns the option index minimising the job's E[S].
func (e *Engine) cheapestOpt(p int) int {
	best, bestES := 0, e.jobES(p, 0)
	for opt := 1; opt < e.jobs[p].opts; opt++ {
		if es := e.jobES(p, opt); es < bestES {
			best, bestES = opt, es
		}
	}
	return best
}
