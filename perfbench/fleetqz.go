package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	rtmetrics "runtime/metrics"
	"time"

	"quetzal/internal/energy"
	"quetzal/internal/experiments"
	"quetzal/internal/fleet"
	"quetzal/internal/metrics"
	"quetzal/internal/runner"
	"quetzal/internal/sim"
	"quetzal/internal/trace"
)

// fleet-qz: fleet.Run of a qz / crowded / apollo4 fleet on the default
// lockstep stepper, jitter 0.1, correlation 0.8, two workers.
const (
	fleetDevices = 16384
	fleetWorkers = 2
	// fleetWarmDevices is the warm-up fleet each setup repetition runs.
	fleetWarmDevices = 1024
	// fleetDrain mirrors fleet.Options' default per-device drain tail.
	fleetDrain = 15.0
)

func fleetPlan(seed int64, devices int) (experiments.FleetPlan, error) {
	return experiments.FleetSpec{
		Devices:     devices,
		System:      experiments.SysQuetzal,
		Env:         experiments.Crowded.Name,
		Profile:     experiments.ProfileApollo4,
		Seed:        seed,
		Jitter:      0.1,
		Correlation: 0.8,
	}.Plan()
}

// aggregateDigest is the sha256 of the marshaled aggregate, the same digest
// cmd/fleetbench records as aggregate_sha256.
func aggregateDigest(agg *fleet.Aggregate) (string, error) {
	b, err := json.Marshal(agg)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// fleetRep is one timed fleet.Run.
type fleetRep struct {
	digest    string
	devPerSec float64
	peakHeap  float64   // MiB, sampled at every shard fold
	residency []float64 // ms per shard, window admission → fold
	wall      time.Duration
}

// runFleetOnce times one untraced fleet.Run. A shard enters the runner's
// dispatch window when the shard fleetWindow places before it folds (or at
// the start), so its residency is the gap between those two folds.
func runFleetOnce(plan experiments.FleetPlan) (fleetRep, error) {
	var (
		hp    heapPeak
		folds []time.Time
	)
	start := time.Now()
	agg, _, err := fleet.Run(context.Background(), plan, fleet.Options{
		Workers: fleetWorkers,
		OnProgress: func(done, total int) {
			folds = append(folds, time.Now())
			hp.sample()
		},
	})
	wall := time.Since(start)
	if err != nil {
		return fleetRep{}, err
	}
	digest, err := aggregateDigest(agg)
	if err != nil {
		return fleetRep{}, err
	}
	const window = 2 * fleetWorkers // fleet.Options' default Window
	rep := fleetRep{digest: digest, devPerSec: float64(plan.Devices) / wall.Seconds(), peakHeap: hp.mib(), wall: wall}
	for k, t := range folds {
		from := start
		if k >= window {
			from = folds[k-window]
		}
		rep.residency = append(rep.residency, ms(t.Sub(from)))
	}
	return rep, nil
}

func runFleetQZ(cfg config) (*result, error) {
	rep := newResult()
	plan, err := fleetPlan(cfg.seed, fleetDevices)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceFleetQZ(cfg, plan, rep)
	}
	setup, err := timeSetup(func() error {
		warm, err := fleetPlan(cfg.seed, fleetWarmDevices)
		if err != nil {
			return err
		}
		_, err = runFleetOnce(warm)
		return err
	})
	if err != nil {
		return nil, err
	}
	var digest string
	reps, err := measure(cfg.seconds, 2, func() (repOut, error) {
		rep.Attempted++
		r, err := runFleetOnce(plan)
		if err != nil {
			return repOut{}, err
		}
		checkDigest(rep, "fleet-qz", cfg.seed, &digest, r.digest)
		return repOut{rate: r.devPerSec, heap: r.peakHeap, lat: r.residency}, nil
	})
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setup)
	setEndToEnd(rep, reps, "shard residency")
	return rep, nil
}

// fleetReplay re-composes fleet.Run's per-device work from public calls so
// each layer can be timed: the same seeds, jitter draws, sky, controller and
// engine configuration, folded in device order. Its aggregate must equal
// fleet.Run's byte for byte.
type fleetReplay struct {
	plan  experiments.FleetPlan
	setup experiments.Setup
	solar *trace.FleetSolar
}

func newFleetReplay(plan experiments.FleetPlan) (*fleetReplay, error) {
	profile, ok := experiments.ProfileByName(plan.Profile)
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", plan.Profile)
	}
	refDur := float64(plan.Events)*(5+math.Min(25, plan.Env.MaxDuration)) + fleetDrain + 120
	solarCfg := trace.DefaultSolarConfig(refDur, fleet.DeviceSeed(plan.Seed, 0, fleet.StreamRegional))
	return &fleetReplay{
		plan: plan,
		setup: experiments.Setup{
			Profile:   profile,
			NumEvents: plan.Events,
			Seed:      plan.Seed,
			Cells:     experiments.ReferenceCells,
			Engine:    plan.Engine,
		},
		solar: trace.NewFleetSolar(solarCfg, plan.Correlation),
	}, nil
}

func jittered(base, j, u float64) float64 { return base * (1 + j*u) }

// shardLedger is one shard's per-layer tallies beyond its spans.
type shardLedger struct {
	ctl      ctlStats
	runCtl   time.Duration // controller time spent inside engine.run spans
	replayed int
	devices  int
}

// config assembles device i's simulation config exactly as fleet.Run
// does, recording the construction spans under parent dev.
func (f *fleetReplay) config(l *lane, dev, i int) (sim.Config, error) {
	plan := f.plan
	id := int64(i)
	s := l.begin("trace.events", id, dev)
	events := trace.GenerateEvents(trace.DefaultEventConfig(
		plan.Events, plan.Env.MaxDuration, fleet.DeviceSeed(plan.Seed, i, fleet.StreamEvents)))
	l.end(s)
	duration := events.Duration() + fleetDrain
	s = l.begin("trace.solar", id, dev)
	power := f.solar.Device(fleet.DeviceSeed(plan.Seed, i, fleet.StreamSolar), duration)
	l.end(s)

	s = l.begin("fleet.jitter", id, dev)
	jr := rand.New(rand.NewSource(fleet.DeviceSeed(plan.Seed, i, fleet.StreamJitter)))
	uPeriod := 2*jr.Float64() - 1
	uCap := 2*jr.Float64() - 1
	uBuf := 2*jr.Float64() - 1
	uCells := 2*jr.Float64() - 1
	j := plan.Jitter
	capturePeriod := jittered(1.0, j, uPeriod)
	store := energy.DefaultConfig()
	store.Capacitance = jittered(store.Capacitance, j, uCap)
	bufCap := int(math.Round(jittered(float64(f.setup.Profile.BufferCapacity), j, uBuf)))
	if bufCap < 1 {
		bufCap = 1
	}
	var pw trace.PowerTrace = power
	if scale := jittered(1.0, j, uCells); scale != 1 {
		pw = trace.Scaled{Base: power, Factor: scale}
	}
	l.end(s)

	s = l.begin("policy.build", id, dev)
	app := f.setup.Profile.PersonDetectionApp()
	setup := f.setup
	setup.CapturePeriod = capturePeriod
	ctl, ctlBufCap, err := setup.Controller(plan.System, app, pw, events)
	l.end(s)
	if err != nil {
		return sim.Config{}, fmt.Errorf("device %d: %w", i, err)
	}
	if ctlBufCap > 0 {
		bufCap = ctlBufCap
	}
	cfg := sim.Config{
		Profile:        setup.Profile,
		App:            app,
		Controller:     ctl,
		Power:          pw,
		Events:         events,
		Store:          store,
		Engine:         plan.Engine,
		CapturePeriod:  capturePeriod,
		DrainTime:      fleetDrain,
		BufferCapacity: bufCap,
		Seed:           fleet.DeviceSeed(plan.Seed, i, fleet.StreamSim),
		Checks:         sim.ChecksOff,
		Environment:    plan.Env.Name,
	}
	cfg.Faults = plan.Env.Faults
	if plan.Faults.Enabled() {
		cfg.Faults = plan.Faults
	}
	if cfg.Faults.Enabled() {
		cfg.FaultSeed = fleet.DeviceSeed(plan.Seed, i, fleet.StreamFaults)
	}
	return cfg, nil
}

// device builds, runs and summarizes device i into b, recording its spans
// in l and its controller time in sl.
func (f *fleetReplay) device(ctx context.Context, l *lane, sl *shardLedger, i int, b *fleet.Block) error {
	id := int64(i)
	dev := l.begin("device", id, -1)
	cfg, err := f.config(l, dev, i)
	if err != nil {
		return err
	}
	cfg.Controller = wrapController(cfg.Controller, &sl.ctl)
	s := l.begin("engine.new", id, dev)
	simulator, err := sim.New(cfg)
	l.end(s)
	if err != nil {
		return fmt.Errorf("device %d: %w", i, err)
	}
	ctlBefore := sl.ctl.total()
	s = l.begin("engine.run", id, dev)
	err = simulator.RunIntoContext(ctx, func(res *metrics.Results) {
		sum := l.begin("fleet.summarize", id, s)
		b.Push(metrics.Summarize(res))
		l.end(sum)
	})
	l.end(s)
	sl.runCtl += sl.ctl.total() - ctlBefore
	if err != nil {
		return fmt.Errorf("device %d: %w", i, err)
	}
	sl.replayed += simulator.Machine().ReplayedSteps()
	sl.devices++
	l.end(dev)
	return nil
}

// replayOutcome is one traced fleet replay.
type replayOutcome struct {
	digest    string
	devPerSec float64
	rec       *recorder
	ledger    shardLedger
	batch     runner.Ledger
}

// replay runs the traced composition over the runner's batch executor with
// fleet.Run's worker count, shard size and window.
func (f *fleetReplay) replay() (replayOutcome, error) {
	rec := newRecorder()
	acc := fleet.NewAccumulator()
	foldLane := rec.lane()
	var total shardLedger
	ledgers := map[int]*shardLedger{}
	start := time.Now()
	batch, err := runner.RunBatch(context.Background(), f.plan.Devices, runner.BatchConfig{
		Workers:   fleetWorkers,
		ShardSize: f.plan.ShardSize,
		Window:    2 * fleetWorkers,
	}, func(ctx context.Context, s runner.Shard) (*fleet.Block, error) {
		l := rec.lane()
		sl := &shardLedger{}
		b := fleet.NewBlock(s.Len())
		for i := s.Start; i < s.End; i++ {
			if err := f.device(ctx, l, sl, i, b); err != nil {
				return nil, err
			}
		}
		rec.mu.Lock()
		ledgers[s.Index] = sl
		rec.mu.Unlock()
		return b, nil
	}, func(s runner.Shard, b *fleet.Block) error {
		sp := foldLane.begin("fleet.fold", int64(s.Index), -1)
		acc.FoldBlock(b)
		foldLane.end(sp)
		return nil
	})
	wall := time.Since(start)
	if err != nil {
		return replayOutcome{}, err
	}
	for _, sl := range ledgers {
		total.ctl.calls += sl.ctl.calls
		total.ctl.nextJob += sl.ctl.nextJob
		total.ctl.other += sl.ctl.other
		total.ctl.nextHist.merge(&sl.ctl.nextHist)
		total.runCtl += sl.runCtl
		total.replayed += sl.replayed
		total.devices += sl.devices
	}
	digest, err := aggregateDigest(acc.Aggregate())
	if err != nil {
		return replayOutcome{}, err
	}
	return replayOutcome{digest: digest, devPerSec: float64(f.plan.Devices) / wall.Seconds(),
		rec: rec, ledger: total, batch: batch}, nil
}

// allocSampleDevices is how many devices the allocation sampler builds.
const allocSampleDevices = 64

// newAllocKiB measures sim.New's heap allocation per device for the configs
// build returns. It runs after the concurrent phases, on one goroutine, so
// nothing else allocates between the two reads of the process-wide counter.
func newAllocKiB(build func(i int) (sim.Config, error)) (float64, error) {
	sample := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	var total uint64
	for i := 0; i < allocSampleDevices; i++ {
		cfg, err := build(i)
		if err != nil {
			return 0, err
		}
		rtmetrics.Read(sample)
		before := sample[0].Value.Uint64()
		if _, err := sim.New(cfg); err != nil {
			return 0, err
		}
		rtmetrics.Read(sample)
		total += sample[0].Value.Uint64() - before
	}
	return float64(total) / allocSampleDevices / 1024, nil
}

// traceFleetQZ is the traced fleet-qz run: untraced fleet.Run for half the
// time, the traced replay for the other half. The replay's digest must
// equal fleet.Run's, and the devices/s ratio of the two is the tracing
// overhead.
func traceFleetQZ(cfg config, plan experiments.FleetPlan, rep *result) (*result, error) {
	finish, err := tracedRun(cfg)
	if err != nil {
		return nil, err
	}
	half := cfg.seconds / 2
	var (
		digest           string
		untraced, traced []float64
	)
	err = repeat(half, 1, func() error {
		rep.Attempted++
		r, err := runFleetOnce(plan)
		if err != nil {
			return err
		}
		checkDigest(rep, "fleet-qz", cfg.seed, &digest, r.digest)
		untraced = append(untraced, r.devPerSec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	fr, err := newFleetReplay(plan)
	if err != nil {
		return nil, err
	}
	var (
		first *replayOutcome
		led   shardLedger
		times = map[string]layerTime{}
		batch runner.Ledger
		spans int
	)
	err = repeat(half, 1, func() error {
		rep.Attempted++
		out, err := fr.replay()
		if err != nil {
			return err
		}
		if out.digest != digest {
			rep.fail("traced replay digest %s differs from fleet.Run's %s", out.digest, digest)
		}
		traced = append(traced, out.devPerSec)
		led.add(&out.ledger)
		for name, t := range out.rec.selfTimes() {
			sum := times[name]
			sum.n += t.n
			sum.total += t.total
			sum.self += t.self
			times[name] = sum
		}
		spans += len(out.rec.all())
		if first == nil {
			first = &out
			batch = out.batch
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	scratch := newRecorder().lane()
	allocKiB, err := newAllocKiB(func(i int) (sim.Config, error) { return fr.config(scratch, -1, i) })
	if err != nil {
		return nil, err
	}
	if err := finish(first.rec); err != nil {
		return nil, err
	}
	note("untraced devices/s %v, traced replay devices/s %v", untraced, traced)
	reportSimLayers(rep, times, &led)
	rep.set("engine.alloc_kib", allocKiB)
	rep.set("fleet.fold_us", float64(times["fleet.fold"].total)/float64(times["fleet.fold"].n)/1e3)
	reportRunner(rep, batch)
	rep.set("tracing.overhead_frac", overheadFrac(median(untraced), median(traced)))
	rep.set("tracing.spans", float64(spans))
	return rep, nil
}

func (sl *shardLedger) add(o *shardLedger) {
	sl.ctl.calls += o.ctl.calls
	sl.ctl.nextJob += o.ctl.nextJob
	sl.ctl.other += o.ctl.other
	sl.ctl.nextHist.merge(&o.ctl.nextHist)
	sl.runCtl += o.runCtl
	sl.replayed += o.replayed
	sl.devices += o.devices
}

// reportSimLayers turns device spans and controller tallies into the
// trace / policy / engine / controller / fold-side per-layer metrics, all
// per device.
func reportSimLayers(rep *result, times map[string]layerTime, led *shardLedger) {
	if led.devices == 0 {
		return
	}
	n := float64(led.devices)
	perDevice := func(name string, unit time.Duration) float64 {
		return float64(times[name].total) / n / float64(unit)
	}
	rep.set("trace.events_us", perDevice("trace.events", time.Microsecond))
	rep.set("trace.solar_us", perDevice("trace.solar", time.Microsecond))
	rep.set("fleet.jitter_us", perDevice("fleet.jitter", time.Microsecond))
	rep.set("policy.build_us", perDevice("policy.build", time.Microsecond))
	rep.set("engine.new_us", perDevice("engine.new", time.Microsecond))
	rep.set("fleet.summarize_ns", perDevice("fleet.summarize", time.Nanosecond))

	stepSelf := times["engine.run"].self - led.runCtl
	devTotal := float64(times["device"].total)
	rep.set("engine.step_self_ms", float64(stepSelf)/n/float64(time.Millisecond))
	rep.set("engine.replayed_steps", float64(led.replayed)/n)
	rep.set("controller.calls", float64(led.ctl.calls)/n)
	p50, tail := led.ctl.nextHist.percentile(50), led.ctl.nextHist.tail()
	noteQ("controller.next_job_ns_p50", p50)
	noteQ("controller.next_job_ns_tail", tail)
	rep.set("controller.next_job_ns_p50", p50.Value)
	rep.set("controller.next_job_ns_tail", tail.Value)
	if devTotal > 0 {
		rep.set("engine.self_frac", float64(stepSelf)/devTotal)
		rep.set("controller.self_frac", float64(led.ctl.total())/devTotal)
	}
}

// reportRunner reports a runner pool's ledger, with run latencies read off
// its histogram.
func reportRunner(rep *result, l runner.Ledger) {
	rep.set("runner.executed", float64(l.Executed))
	rep.set("runner.cache_hits", float64(l.CacheHits))
	if tot := l.Executed + l.CacheHits; tot > 0 {
		rep.set("runner.hit_frac", float64(l.CacheHits)/float64(tot))
	}
	if l.Executed > 0 {
		rep.set("runner.queue_wait_ms_mean", ms(l.QueueWait)/float64(l.Executed))
	}
	if l.Latency == nil || l.Latency.Count() == 0 {
		return
	}
	n := int(l.Latency.Count())
	p, ok := tailPercentile(n)
	if !ok {
		p = 100
	}
	note("runner.run_ms_tail = p%d of %d samples (histogram)", p, n)
	rep.set("runner.run_ms_p50", l.Latency.Quantile(0.5)*1000)
	rep.set("runner.run_ms_tail", l.Latency.Quantile(float64(p)/100)*1000)
}
