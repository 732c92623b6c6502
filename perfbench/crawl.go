package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"quetzal/internal/device"
	"quetzal/internal/experiments"
	"quetzal/internal/fleet"
	"quetzal/internal/metrics"
	"quetzal/internal/sim"
	"quetzal/internal/trace"
)

// crawl-noadapt: back-to-back single-device sim.New + Run on the lockstep
// stepper under a SquareWave harvest with the NoAdapt controller — the
// regime where lockstep's crawl replay carries the run.
const (
	crawlDevices  = 2048 // devices per batch; every batch replays the same inputs
	crawlWarm     = 512  // devices each setup repetition runs
	crawlWorkers  = 2
	crawlEvents   = 20
	crawlEventCap = 20.0 // seconds
)

var crawlPower = trace.SquareWave{High: 0.05, Low: 0.004, Period: 60, Duty: 0.5}

// crawlInputs generates the per-device event traces, seeded per device.
func crawlInputs(seed int64, n int, l *lane) []*trace.EventTrace {
	out := make([]*trace.EventTrace, n)
	for i := range out {
		s := -1
		if l != nil {
			s = l.begin("trace.events", int64(i), -1)
		}
		out[i] = trace.GenerateEvents(trace.DefaultEventConfig(crawlEvents, crawlEventCap,
			fleet.DeviceSeed(seed, i, fleet.StreamEvents)))
		if l != nil {
			l.end(s)
		}
	}
	return out
}

// crawlConfig builds device i's controller and simulation config, timing
// the controller build under parent dev when l is set.
func crawlConfig(seed int64, i int, events *trace.EventTrace, l *lane, dev int) (sim.Config, error) {
	prof := device.Apollo4()
	s := -1
	if l != nil {
		s = l.begin("policy.build", int64(i), dev)
	}
	app := prof.PersonDetectionApp()
	ctl, bufCap, err := experiments.Setup{Profile: prof}.Controller(experiments.SysNoAdapt, app, crawlPower, events)
	if l != nil {
		l.end(s)
	}
	return sim.Config{
		Profile:        prof,
		App:            app,
		Controller:     ctl,
		Power:          crawlPower,
		Events:         events,
		Engine:         sim.Lockstep,
		BufferCapacity: bufCap,
		Seed:           fleet.DeviceSeed(seed, i, fleet.StreamSim),
		Checks:         sim.ChecksOff,
		Environment:    "crawl",
	}, err
}

// crawlDevice builds and runs device i. With l set it records spans and
// controller time in sl.
func crawlDevice(seed int64, i int, events *trace.EventTrace, l *lane, sl *shardLedger) (metrics.Summary, error) {
	var sum metrics.Summary
	if l == nil {
		cfg, err := crawlConfig(seed, i, events, nil, -1)
		if err != nil {
			return sum, err
		}
		simulator, err := sim.New(cfg)
		if err != nil {
			return sum, err
		}
		err = simulator.RunIntoContext(context.Background(), func(res *metrics.Results) {
			sum = metrics.Summarize(res)
		})
		return sum, err
	}
	id := int64(i)
	dev := l.begin("device", id, -1)
	cfg, err := crawlConfig(seed, i, events, l, dev)
	if err != nil {
		return sum, err
	}
	cfg.Controller = wrapController(cfg.Controller, &sl.ctl)
	s := l.begin("engine.new", id, dev)
	simulator, err := sim.New(cfg)
	l.end(s)
	if err != nil {
		return sum, err
	}
	ctlBefore := sl.ctl.total()
	s = l.begin("engine.run", id, dev)
	err = simulator.RunIntoContext(context.Background(), func(res *metrics.Results) {
		sum = metrics.Summarize(res)
	})
	l.end(s)
	sl.runCtl += sl.ctl.total() - ctlBefore
	sl.replayed += simulator.Machine().ReplayedSteps()
	sl.devices++
	l.end(dev)
	return sum, err
}

// crawlBatch is one timed pass over the batch's devices.
type crawlBatch struct {
	digest   string
	simSecs  float64
	wall     time.Duration
	latency  []float64 // ms per device
	peakHeap float64
	ledger   shardLedger
	failed   int
}

// runCrawlBatch runs devices [0, len(inputs)) split across crawlWorkers
// goroutines and digests their summaries in device order.
func runCrawlBatch(seed int64, inputs []*trace.EventTrace, rec *recorder) (crawlBatch, error) {
	n := len(inputs)
	sums := make([]metrics.Summary, n)
	errs := make([]error, n)
	lat := make([]float64, n)
	ledgers := make([]shardLedger, crawlWorkers)
	var wg sync.WaitGroup
	heap := watchHeap()
	start := time.Now()
	for w := 0; w < crawlWorkers; w++ {
		var l *lane
		if rec != nil {
			l = rec.lane()
		}
		wg.Add(1)
		go func(w int, l *lane) {
			defer wg.Done()
			for i := w; i < n; i += crawlWorkers {
				t := time.Now()
				sums[i], errs[i] = crawlDevice(seed, i, inputs[i], l, &ledgers[w])
				lat[i] = ms(time.Since(t))
			}
		}(w, l)
	}
	wg.Wait()
	out := crawlBatch{wall: time.Since(start), latency: lat, peakHeap: heap.end()}
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i := range sums {
		if errs[i] != nil {
			out.failed++
			note("crawl device %d: %v", i, errs[i])
			continue
		}
		if err := enc.Encode(sums[i]); err != nil {
			return out, err
		}
		out.simSecs += sums[i].SimSeconds
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	for w := range ledgers {
		out.ledger.add(&ledgers[w])
	}
	return out, nil
}

func runCrawl(cfg config) (*result, error) {
	rep := newResult()
	if cfg.trace {
		return traceCrawl(cfg, rep)
	}
	var inputs []*trace.EventTrace
	setup, err := timeSetup(func() error {
		inputs = crawlInputs(cfg.seed, crawlDevices, nil)
		b, err := runCrawlBatch(cfg.seed, inputs[:crawlWarm], nil)
		if err == nil && b.failed > 0 {
			err = fmt.Errorf("%d warm-up devices failed", b.failed)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	var digest string
	reps, err := measure(cfg.seconds, 2, func() (repOut, error) {
		b, err := runCrawlBatch(cfg.seed, inputs, nil)
		if err != nil {
			return repOut{}, err
		}
		rep.Attempted += len(inputs)
		rep.Failed += b.failed
		checkDigest(rep, "crawl-noadapt", cfg.seed, &digest, b.digest)
		return repOut{rate: b.simSecs / b.wall.Seconds(), heap: b.peakHeap, lat: b.latency}, nil
	})
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setup)
	setEndToEnd(rep, reps, "per device")
	return rep, nil
}

// traceCrawl runs untraced batches for half the time and traced ones for
// the other half; traced batches must reproduce the untraced digest, and
// crawl replay must stay engaged under the controller wrapper.
func traceCrawl(cfg config, rep *result) (*result, error) {
	finish, err := tracedRun(cfg)
	if err != nil {
		return nil, err
	}
	half := cfg.seconds / 2
	inputs := crawlInputs(cfg.seed, crawlDevices, nil)
	var (
		digest           string
		untraced, traced []float64
	)
	err = repeat(half, 1, func() error {
		b, err := runCrawlBatch(cfg.seed, inputs, nil)
		if err != nil {
			return err
		}
		rep.Attempted += len(inputs)
		rep.Failed += b.failed
		checkDigest(rep, "crawl-noadapt", cfg.seed, &digest, b.digest)
		untraced = append(untraced, b.simSecs/b.wall.Seconds())
		return nil
	})
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	crawlInputs(cfg.seed, crawlDevices, rec.lane()) // times trace generation
	var led shardLedger
	err = repeat(half, 1, func() error {
		b, err := runCrawlBatch(cfg.seed, inputs, rec)
		if err != nil {
			return err
		}
		rep.Attempted += len(inputs)
		rep.Failed += b.failed
		if b.digest != digest {
			rep.fail("traced crawl digest %s differs from untraced %s", b.digest, digest)
		}
		traced = append(traced, b.simSecs/b.wall.Seconds())
		led.add(&b.ledger)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if led.replayed == 0 {
		rep.fail("crawl replay never engaged under the controller wrapper")
	}
	allocKiB, err := newAllocKiB(func(i int) (sim.Config, error) {
		return crawlConfig(cfg.seed, i, inputs[i], nil, -1)
	})
	if err != nil {
		return nil, err
	}
	if err := finish(rec); err != nil {
		return nil, err
	}
	times := rec.selfTimes()
	note("untraced sim-s/s %v, traced sim-s/s %v", untraced, traced)
	reportSimLayers(rep, times, &led)
	rep.set("engine.alloc_kib", allocKiB)
	// Events were generated once per device in the timing pass above, not
	// once per traced batch.
	rep.set("trace.events_us", float64(times["trace.events"].total)/crawlDevices/float64(time.Microsecond))
	rep.set("tracing.overhead_frac", overheadFrac(median(untraced), median(traced)))
	rep.set("tracing.spans", float64(len(rec.all())))
	return rep, nil
}
