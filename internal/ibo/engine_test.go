package ibo

import (
	"fmt"
	"math/rand"
	"testing"

	"quetzal/internal/model"
)

// sameAsReference decides job on e and on the map-based reference and
// requires both to agree exactly: every Decision field, and the plan each
// left behind.
func sameAsReference(e *Engine, job *model.Job, in Input) error {
	want := refDecide(job, in)
	got := e.Decide(job, in)
	wantD := Decision{IBOPredicted: want.IBOPredicted, Averted: want.Averted,
		OptionIdx: want.OptionIdx, ExpectedS: want.ExpectedS}
	if got != wantD {
		return fmt.Errorf("job %d: engine decided %+v, reference %+v", job.ID, got, wantD)
	}
	if err := samePlan(e, want.Plan); err != nil {
		return fmt.Errorf("job %d decision: %v", job.ID, err)
	}
	return nil
}

// samePlan compares the engine's plan with a reference assignment.
func samePlan(e *Engine, want assignment) error {
	for p, ji := range e.jobs {
		if got, w := e.plan[p], plannedOpt(want, ji.job); got != w {
			return fmt.Errorf("plan for job %d = %d, reference %d (engine %v, reference %v)",
				ji.job.ID, got, w, e.resolved(), want)
		}
	}
	return nil
}

// sameResolverAsReference runs both plan resolvers from scratch.
func sameResolverAsReference(e *Engine, in Input) error {
	want, wantOK := resolvePlan(in)
	e.begin(in)
	if ok := e.resolvePlan(); ok != wantOK {
		return fmt.Errorf("resolver stable = %v, reference %v", ok, wantOK)
	}
	return samePlan(e, want)
}

// TestEngineMatchesReference is the differential oracle: over random spawn
// chains, for every job and with the drawn buffer state as well as a full
// buffer (burst check and utilization gate both engaged) and an unknown
// capacity, a fresh Engine and the map-based reference decide and resolve
// identically.
func TestEngineMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		app, in := randomReactorCase(rng)
		full, unknownCap := in, in
		full.FreeSlots = 0
		unknownCap.Capacity = 0
		for _, variant := range []Input{in, full, unknownCap} {
			for _, job := range app.Jobs {
				if err := sameAsReference(NewEngine(app), job, variant); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			if err := sameResolverAsReference(NewEngine(app), variant); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

// TestEngineReuseMatchesReference drives one Engine per app through a
// sequence of decisions whose free slots, λ, PID correction, spawn
// probability and task probabilities all change between calls: any scratch
// state that leaked from one decision into the next (a stale reach vector,
// E[S] memo entry or plan slot) diverges from the stateless reference.
func TestEngineReuseMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		app, in := randomReactorCase(rng)
		est := in.Est.(*fakeEstimator)
		e := NewEngine(app)
		for step := 0; step < 40; step++ {
			in.FreeSlots = rng.Intn(in.Capacity + 1)
			in.Lambda = 0.05 + 3*rng.Float64()
			in.Correction = (rng.Float64() - 0.5) * 2
			p := rng.Float64()
			in.SpawnProb = func(int) float64 { return p }
			for key := range est.prob {
				est.prob[key] = 0.2 + 0.8*rng.Float64()
			}
			job := app.Jobs[rng.Intn(len(app.Jobs))]
			if err := sameAsReference(e, job, in); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}

// TestEngineUnreachableAndCyclic covers layouts the random chains never
// draw: an orphan job outside the entry chain, and a spawn cycle.
func TestEngineUnreachableAndCyclic(t *testing.T) {
	orphanApp := chainApp()
	orphanApp.Jobs = append(orphanApp.Jobs, &model.Job{ID: 9, Name: "orphan", Tasks: []*model.Task{
		{Name: "heavy", Kind: model.Compute, Options: []model.Option{opt("h", 100), opt("l", 1)}},
	}, SpawnJobID: model.NoSpawn})
	cyclicApp := chainApp()
	cyclicApp.Jobs[1].SpawnJobID = 0
	for name, app := range map[string]*model.App{"orphan": orphanApp, "cyclic": cyclicApp} {
		est := &fakeEstimator{se2e: map[[3]int]float64{
			{0, 0, 0}: 2, {0, 0, 1}: 0.2,
			{1, 0, 0}: 0.2,
			{1, 1, 0}: 0.8, {1, 1, 1}: 0.3, {1, 1, 2}: 0.05,
			{9, 0, 0}: 100, {9, 0, 1}: 1,
		}}
		e := NewEngine(app)
		for free := 0; free <= 10; free++ {
			for _, p := range []float64{0, 0.3, 1} {
				in := input(app, est, 1, free, 10, 0)
				in.SpawnProb = func(int) float64 { return p }
				for _, job := range app.Jobs {
					if err := sameAsReference(e, job, in); err != nil {
						t.Fatalf("%s free=%d p=%g: %v", name, free, p, err)
					}
				}
			}
		}
	}
}

// decideCase is a chain app whose full buffer engages the burst check and
// the utilization gate, so Decide resolves the whole plan.
func decideCase() (*Engine, *model.Job, Input) {
	app := chainApp()
	est := &fakeEstimator{se2e: map[[3]int]float64{
		{0, 0, 0}: 2, {0, 0, 1}: 0.2,
		{1, 0, 0}: 0.2,
		{1, 1, 0}: 0.8, {1, 1, 1}: 0.3, {1, 1, 2}: 0.05,
	}}
	in := input(app, est, 1, 0, 10, 0.1)
	in.SpawnProb = func(int) float64 { return 0.7 }
	return NewEngine(app), app.JobByID(0), in
}

func TestEngineDecideZeroAlloc(t *testing.T) {
	e, job, in := decideCase()
	if d := e.Decide(job, in); !d.IBOPredicted {
		t.Fatalf("decision = %+v, want the IBO path engaged", d)
	}
	if allocs := testing.AllocsPerRun(1000, func() { e.Decide(job, in) }); allocs != 0 {
		t.Errorf("reused Engine.Decide allocates %.2f per call, want 0", allocs)
	}
}

var decisionSink Decision

func BenchmarkEngineDecide(b *testing.B) {
	e, job, in := decideCase()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decisionSink = e.Decide(job, in)
	}
}
