// Package fleet scales the simulator from one device to a city of them: one
// fleet run instantiates N engine machines from heterogeneous device
// profiles (per-device parameter jitter, correlated solar skies), shards
// them across a batch runner, and streams every finished device through a
// columnar fold into fixed-size aggregate state (internal histograms +
// exact counters), so memory stays bounded at any fleet size.
//
// Determinism is the design center. Every per-device random stream is
// derived from (fleet seed, device index, stream id) by a SplitMix64-style
// mixer — never from shard id, worker id, or execution order — and the
// aggregate fold runs strictly in device order (see runner.RunBatch). The
// resulting Aggregate is byte-identical across shard sizes and worker
// counts, which the package tests pin.
package fleet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"quetzal/internal/energy"
	"quetzal/internal/engine"
	"quetzal/internal/experiments"
	"quetzal/internal/metrics"
	"quetzal/internal/runner"
	"quetzal/internal/trace"
)

// Stream identifies one independent per-device random stream.
type Stream uint64

const (
	// StreamSolar seeds the device's local cloud/noise draw.
	StreamSolar Stream = 1 + iota
	// StreamEvents seeds the device's sensing-event trace.
	StreamEvents
	// StreamSim seeds the simulator (classifier coin flips).
	StreamSim
	// StreamJitter seeds the device's parameter-jitter draws.
	StreamJitter
	// StreamRegional seeds the fleet's shared regional sky (device index
	// ignored — one series per fleet).
	StreamRegional
	// StreamFaults seeds the device's transient-fault draws
	// (internal/faults). Appended after StreamRegional so every earlier
	// stream keeps its historical values.
	StreamFaults
)

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// DeviceSeed derives the seed for one device's stream. It depends only on
// (fleetSeed, device, stream) — not on shard layout or execution order — so
// any re-sharding of the same fleet replays identical devices.
func DeviceSeed(fleetSeed int64, device int, stream Stream) int64 {
	h := splitmix64(uint64(fleetSeed))
	h = splitmix64(h ^ (uint64(device) + 1))
	h = splitmix64(h ^ uint64(stream))
	return int64(h)
}

// Options tunes fleet execution. The zero value of every field is a usable
// default. None of these fields may change the Aggregate — only how fast it
// is produced (pinned by TestFleetDeterminism).
type Options struct {
	// Workers bounds concurrent shard executions; 0 → runtime.NumCPU().
	Workers int
	// Window bounds shards dispatched ahead of the fold cursor; 0 → 2 ×
	// Workers. Peak residency is O(Window · Block).
	Window int
	// DrainTime is the per-device tail after its last event, seconds;
	// 0 → 15. Shorter than the single-run default 60 s: fleet sweeps study
	// population distributions, and the tail only needs to let in-flight
	// work settle.
	DrainTime float64
	// OnProgress, when set, receives (devices done, total) after each shard
	// folds; calls are serialized and arrive in shard order.
	OnProgress func(done, total int)
	// OnHeapSample, when set, receives runtime heap-alloc samples taken
	// during the fold loop (for peak-RSS accounting in services/benches).
	OnHeapSample func(heapAlloc uint64)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.Window <= 0 {
		o.Window = 2 * o.Workers
	}
	if o.DrainTime <= 0 {
		o.DrainTime = 15
	}
	return o
}

// RunStats is the nondeterministic half of a fleet run's outcome: timing,
// throughput and memory, separated from the deterministic Aggregate.
type RunStats struct {
	Devices       int           `json:"devices"`
	Shards        int           `json:"shards"`
	Elapsed       time.Duration `json:"-"`
	ElapsedSec    float64       `json:"elapsed_sec"`
	DevicesPerSec float64       `json:"devices_per_sec"`
	// PeakHeapBytes is the largest runtime.MemStats.HeapAlloc observed at
	// fold points — the bounded-RSS evidence BENCH_fleet.json records.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
}

// fleetRun carries the per-fleet shared state device builds draw from.
type fleetRun struct {
	plan  experiments.FleetPlan
	opts  Options
	setup experiments.Setup
	solar *trace.FleetSolar
}

// newFleetRun resolves the plan into shared fleet state.
func newFleetRun(plan experiments.FleetPlan, opts Options) (*fleetRun, error) {
	profile, ok := experiments.ProfileByName(plan.Profile)
	if !ok {
		return nil, fmt.Errorf("fleet: unknown profile %q", plan.Profile)
	}
	if plan.Devices <= 0 || plan.Events <= 0 || plan.ShardSize <= 0 {
		return nil, fmt.Errorf("fleet: plan not resolved (devices/events/shard must be positive): %s", plan)
	}
	if plan.Correlation <= 0 || plan.Correlation > 1 {
		return nil, fmt.Errorf("fleet: plan correlation must be in (0,1], got %g", plan.Correlation)
	}

	// The shared sky's envelope shape derives from a deterministic
	// reference horizon (expected event span + drain); individual devices
	// may run longer — the regional series extends on demand.
	refDur := float64(plan.Events)*(5+math.Min(25, plan.Env.MaxDuration)) + opts.DrainTime + 120
	solarCfg := trace.DefaultSolarConfig(refDur, DeviceSeed(plan.Seed, 0, StreamRegional))
	return &fleetRun{
		plan: plan,
		opts: opts,
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

// jittered applies symmetric fractional jitter: base × (1 + j·u), u ∈ [-1,1].
func jittered(base, j, u float64) float64 { return base * (1 + j*u) }

// deviceConfig assembles device i's simulation config: its own event trace,
// its correlated solar draw, and its jittered physical parameters.
func (f *fleetRun) deviceConfig(i int) (engine.Config, error) {
	plan := f.plan
	events := trace.GenerateEvents(trace.DefaultEventConfig(
		plan.Events, plan.Env.MaxDuration, DeviceSeed(plan.Seed, i, StreamEvents)))
	duration := events.Duration() + f.opts.DrainTime
	power := f.solar.Device(DeviceSeed(plan.Seed, i, StreamSolar), duration)

	// Heterogeneity: each parameter draws from its own fixed slot in the
	// jitter stream (always consumed, so adding a parameter later shifts
	// nothing before it, and jitter=0 devices share streams with jittered
	// ones).
	jr := rand.New(rand.NewSource(DeviceSeed(plan.Seed, i, StreamJitter)))
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

	app := f.setup.Profile.PersonDetectionApp()
	setup := f.setup
	setup.CapturePeriod = capturePeriod
	ctl, ctlBufCap, err := setup.Controller(plan.System, app, pw, events)
	if err != nil {
		return engine.Config{}, fmt.Errorf("fleet: device %d: %w", i, err)
	}
	if ctlBufCap > 0 {
		bufCap = ctlBufCap
	}
	cfg := engine.Config{
		Profile:        setup.Profile,
		App:            app,
		Controller:     ctl,
		Power:          pw,
		Events:         events,
		Store:          store,
		Engine:         plan.Engine,
		CapturePeriod:  capturePeriod,
		DrainTime:      f.opts.DrainTime,
		BufferCapacity: bufCap,
		Seed:           DeviceSeed(plan.Seed, i, StreamSim),
		// Fleets run with the invariant checker off: the identities are
		// pinned by the single-device test layers, and a population sweep
		// optimizes for throughput.
		Checks:      engine.ChecksOff,
		Environment: plan.Env.Name,
	}
	// Hardware realism: a plan-level spec overrides the environment's own.
	// The fault seed derives from (fleet seed, device, stream) like every
	// other per-device stream, so aggregates stay byte-identical across
	// shard sizes and worker counts.
	cfg.Faults = plan.Env.Faults
	if plan.Faults.Enabled() {
		cfg.Faults = plan.Faults
	}
	if cfg.Faults.Enabled() {
		cfg.FaultSeed = DeviceSeed(plan.Seed, i, StreamFaults)
	}
	return cfg, nil
}

// runShard simulates devices [s.Start, s.End) in device order and returns
// their columnar block.
func (f *fleetRun) runShard(ctx context.Context, s runner.Shard) (*Block, error) {
	b := NewBlock(s.Len())
	for i := s.Start; i < s.End; i++ {
		cfg, err := f.deviceConfig(i)
		if err != nil {
			return nil, err
		}
		m, err := engine.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("fleet: device %d: %w", i, err)
		}
		err = m.RunInto(ctx, func(res *metrics.Results) {
			b.Push(metrics.Summarize(res))
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: device %d: %w", i, err)
		}
	}
	return b, nil
}

// Run executes one fleet plan: plan.Devices simulations sharded plan.
// ShardSize at a time over opts.Workers, folded in device order into one
// Accumulator. The returned Aggregate depends only on the plan; RunStats
// carries the wall-clock/memory side.
func Run(ctx context.Context, plan experiments.FleetPlan, opts Options) (*Aggregate, RunStats, error) {
	opts = opts.withDefaults()
	f, err := newFleetRun(plan, opts)
	if err != nil {
		return nil, RunStats{}, err
	}

	acc := NewAccumulator()
	var peakHeap uint64
	folds := 0
	sampleHeap := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peakHeap {
			peakHeap = ms.HeapAlloc
		}
		if opts.OnHeapSample != nil {
			opts.OnHeapSample(ms.HeapAlloc)
		}
	}

	start := time.Now()
	_, err = runner.RunBatch(ctx, plan.Devices, runner.BatchConfig{
		Workers:    opts.Workers,
		ShardSize:  plan.ShardSize,
		Window:     opts.Window,
		OnProgress: opts.OnProgress,
	}, f.runShard, func(s runner.Shard, b *Block) error {
		if b.Len() != s.Len() {
			return fmt.Errorf("fleet: shard %d produced %d rows for %d devices", s.Index, b.Len(), s.Len())
		}
		acc.FoldBlock(b)
		// Heap sampling is cheap relative to a shard of simulations, but
		// not to a fold; sample sparsely plus once at the end.
		if folds%8 == 0 {
			sampleHeap()
		}
		folds++
		return nil
	})
	sampleHeap()
	elapsed := time.Since(start)
	if err != nil {
		return nil, RunStats{}, err
	}

	stats := RunStats{
		Devices:       plan.Devices,
		Shards:        runner.Shards(plan.Devices, plan.ShardSize),
		Elapsed:       elapsed,
		ElapsedSec:    elapsed.Seconds(),
		PeakHeapBytes: peakHeap,
	}
	if sec := elapsed.Seconds(); sec > 0 {
		stats.DevicesPerSec = float64(plan.Devices) / sec
	}
	return acc.Aggregate(), stats, nil
}
