package simgen

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"quetzal/internal/engine"
	"quetzal/internal/metrics"
)

// sweepBase seeds the random sweep; a failure reproduces from the seed
// printed in its message alone.
const sweepBase = int64(1000)

// sweepSize returns the number of generated configs the oracle covers. The
// acceptance bar is ≥200; -short trims the sweep for local iteration.
func sweepSize() int {
	if testing.Short() {
		return 40
	}
	return 200
}

// sweepPair is one config run through all three engines: the fixed and
// event arms through Run (checks on), the lockstep arm through RunUnchecked
// so its crawl replay is live — the whole point of the third arm is to
// certify the fast path, not the fallback.
type sweepPair struct {
	p                  Params
	fixed, event, lock metrics.Results
	err                error
}

var (
	sweepOnce sync.Once
	sweepData []sweepPair
)

// runSweep executes the random sweep once per test binary (the differential
// tests all share it) with one worker per CPU.
func runSweep(t *testing.T) []sweepPair {
	t.Helper()
	sweepOnce.Do(func() {
		n := sweepSize()
		sweepData = make([]sweepPair, n)
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < runtime.GOMAXPROCS(0); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					pr := &sweepData[i]
					pr.p = Random(sweepBase + int64(i))
					if pr.fixed, pr.err = pr.p.Run(engine.FixedIncrement); pr.err != nil {
						continue
					}
					if pr.event, pr.err = pr.p.Run(engine.EventDriven); pr.err != nil {
						continue
					}
					pr.lock, pr.err = pr.p.RunUnchecked(engine.Lockstep)
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	})
	for _, pr := range sweepData {
		if pr.err != nil {
			t.Fatalf("%v: %v", pr.p, pr.err)
		}
	}
	return sweepData
}

// shrink minimizes a config that violates an engine-pair comparison: while
// any simpler neighbour still diverges, move there. Bounded so a
// pathological lattice cannot loop. The diverges predicate names the pair,
// so the minimal reproducer in a failure message states which two engines
// disagree, not just that some pair did.
func shrink(p Params, diverges func(Params) bool) Params {
	for round := 0; round < 32; round++ {
		moved := false
		for _, q := range p.Shrink() {
			if diverges(q) {
				p = q
				moved = true
				break
			}
		}
		if !moved {
			return p
		}
	}
	return p
}

// divergesFixedEvent reports whether fixed↔event disagree beyond tol on q.
func divergesFixedEvent(tol metrics.Tolerance) func(Params) bool {
	return func(q Params) bool {
		fx, err := q.Run(engine.FixedIncrement)
		if err != nil {
			return false
		}
		ev, err := q.Run(engine.EventDriven)
		if err != nil {
			return false
		}
		return len(metrics.Diff(fx, ev, tol)) > 0
	}
}

// divergesEventLockstep reports whether event↔lockstep differ in ANY field
// on q — the lockstep contract is bit-identity, so the tolerance is empty.
func divergesEventLockstep(q Params) bool {
	ev, err := q.Run(engine.EventDriven)
	if err != nil {
		return false
	}
	lk, err := q.RunUnchecked(engine.Lockstep)
	if err != nil {
		return false
	}
	return len(metrics.Diff(ev, lk, metrics.Tolerance{})) > 0
}

// curated is the hand-picked differential table: every controller family,
// every device profile, each power-trace shape, and the stress corners
// (checkpointing, jitter, tiny buffer, starvation power) appear at least
// once. Curated configs are chosen representative, so they are held to the
// tighter TypicalTolerance, not just the hard ceiling.
var curated = []Params{
	// Every system on the reference platform, comfortable power.
	{Seed: 1, System: 0, PowerMW: 40, NumEvents: 8, EventDurS: 15, CapMF: 33, BufCap: 10, CapturePerMS: 1000},
	{Seed: 2, System: 1, PowerMW: 40, NumEvents: 8, EventDurS: 15, CapMF: 33, BufCap: 10, CapturePerMS: 1000},
	{Seed: 3, System: 2, PowerMW: 40, NumEvents: 8, EventDurS: 15, CapMF: 33, BufCap: 10, CapturePerMS: 1000},
	{Seed: 4, System: 3, PowerMW: 40, NumEvents: 8, EventDurS: 15, CapMF: 33, BufCap: 10, CapturePerMS: 1000},
	{Seed: 5, System: 4, PowerMW: 40, NumEvents: 8, EventDurS: 15, CapMF: 33, BufCap: 10, CapturePerMS: 1000},
	{Seed: 6, System: 5, PowerMW: 40, NumEvents: 8, EventDurS: 15, CapMF: 33, BufCap: 10, CapturePerMS: 1000},
	// Every profile under Quetzal and NoAdapt.
	{Seed: 7, Profile: 1, System: 0, PowerMW: 25, NumEvents: 6, EventDurS: 10, CapMF: 33, BufCap: 10, CapturePerMS: 1000},
	{Seed: 8, Profile: 2, System: 0, PowerMW: 30, NumEvents: 8, EventDurS: 15, CapMF: 33, BufCap: 10, CapturePerMS: 1000},
	{Seed: 9, Profile: 3, System: 0, PowerMW: 35, NumEvents: 8, EventDurS: 15, CapMF: 33, BufCap: 10, CapturePerMS: 1000},
	{Seed: 10, Profile: 1, System: 1, PowerMW: 20, NumEvents: 5, EventDurS: 10, CapMF: 33, BufCap: 10, CapturePerMS: 1000},
	// Power-trace shapes, including square-wave droughts and solar.
	{Seed: 11, System: 0, PowerKind: 1, PowerMW: 50, NumEvents: 8, EventDurS: 20, CapMF: 33, BufCap: 10, CapturePerMS: 1000},
	{Seed: 12, System: 1, PowerKind: 2, PowerMW: 40, NumEvents: 8, EventDurS: 20, CapMF: 33, BufCap: 10, CapturePerMS: 1000},
	// Stress corners: starvation power, tiny buffer + store, checkpoint
	// policies, execution jitter, fast capture.
	{Seed: 13, System: 1, PowerMW: 4, NumEvents: 6, EventDurS: 20, CapMF: 12, BufCap: 4, CapturePerMS: 1000},
	{Seed: 14, System: 0, PowerMW: 8, NumEvents: 6, EventDurS: 20, CapMF: 12, BufCap: 5, CapturePerMS: 500},
	{Seed: 15, System: 1, Checkpoint: 1, PowerMW: 10, NumEvents: 6, EventDurS: 15, CapMF: 20, BufCap: 10, CapturePerMS: 1000},
	{Seed: 16, System: 1, Checkpoint: 2, PowerMW: 10, NumEvents: 6, EventDurS: 15, CapMF: 20, BufCap: 10, CapturePerMS: 1000},
	{Seed: 17, System: 0, JitterPct: 30, PowerMW: 30, NumEvents: 8, EventDurS: 15, CapMF: 33, BufCap: 10, CapturePerMS: 1000},
}

// TestDifferentialCurated holds fixed↔event to TypicalTolerance on the
// hand-picked table, and event↔lockstep to exact equality.
func TestDifferentialCurated(t *testing.T) {
	for i, p := range curated {
		p := p.Normalize()
		t.Run(fmt.Sprintf("%02d-%s-%s", i, p.SystemName(), powerNames[p.PowerKind]), func(t *testing.T) {
			t.Parallel()
			fixed, err := p.Run(engine.FixedIncrement)
			if err != nil {
				t.Fatalf("%v: fixed engine: %v", p, err)
			}
			event, err := p.Run(engine.EventDriven)
			if err != nil {
				t.Fatalf("%v: event engine: %v", p, err)
			}
			lock, err := p.RunUnchecked(engine.Lockstep)
			if err != nil {
				t.Fatalf("%v: lockstep engine: %v", p, err)
			}
			if diffs := metrics.Diff(fixed, event, TypicalTolerance()); len(diffs) > 0 {
				t.Errorf("pair fixed↔event disagrees on %v:\n  fixed: %v\n  event: %v", p, fixed, event)
				for _, d := range diffs {
					t.Errorf("  %s", d)
				}
			}
			if diffs := metrics.Diff(event, lock, metrics.Tolerance{}); len(diffs) > 0 {
				t.Errorf("pair event↔lockstep not bit-identical on %v:", p)
				for _, d := range diffs {
					t.Errorf("  %s", d)
				}
			}
			if fixed.Captures == 0 {
				t.Errorf("%v: no captures — vacuous comparison", p)
			}
		})
	}
}

// TestDifferentialRandom sweeps the generated configs through both
// tolerance-compared engines and enforces the hard per-config ceiling. On a
// violation the config is shrunk to its smallest still-violating neighbour,
// so the failure message is a minimal reproducer naming the diverging pair.
func TestDifferentialRandom(t *testing.T) {
	hard := Tolerance()
	for _, pr := range runSweep(t) {
		diffs := metrics.Diff(pr.fixed, pr.event, hard)
		if len(diffs) == 0 {
			continue
		}
		small := shrink(pr.p, divergesFixedEvent(hard))
		fx, err1 := small.Run(engine.FixedIncrement)
		ev, err2 := small.Run(engine.EventDriven)
		var sdiffs []string
		if err1 == nil && err2 == nil {
			sdiffs = metrics.Diff(fx, ev, hard)
		}
		if len(sdiffs) == 0 { // shrank past the violation; report the original
			small, sdiffs = pr.p, diffs
		}
		t.Errorf("pair fixed↔event: hard ceiling exceeded; minimal reproducer: %v", small)
		for _, d := range sdiffs {
			t.Errorf("  %s", d)
		}
	}
}

// TestDifferentialLockstepExact is the third edge of the oracle triangle:
// event↔lockstep must agree on EVERY field of every sweep config — no
// tolerance at all. Combined with TestDifferentialRandom (fixed↔event
// within Tolerance) this closes fixed↔lockstep transitively, so the three
// engines form a certified triangle over the full corpus. A violation is
// shrunk and reported naming the pair.
func TestDifferentialLockstepExact(t *testing.T) {
	for _, pr := range runSweep(t) {
		diffs := metrics.Diff(pr.event, pr.lock, metrics.Tolerance{})
		if len(diffs) == 0 {
			continue
		}
		small := shrink(pr.p, divergesEventLockstep)
		ev, err1 := small.Run(engine.EventDriven)
		lk, err2 := small.RunUnchecked(engine.Lockstep)
		var sdiffs []string
		if err1 == nil && err2 == nil {
			sdiffs = metrics.Diff(ev, lk, metrics.Tolerance{})
		}
		if len(sdiffs) == 0 { // shrank past the violation; report the original
			small, sdiffs = pr.p, diffs
		}
		t.Errorf("pair event↔lockstep: bit-identity violated; minimal reproducer: %v", small)
		for _, d := range sdiffs {
			t.Errorf("  %s", d)
		}
	}
}

// TestDifferentialTypicalQuota: chaotic regime splits are expected in a
// small minority of configs — but only there. At least 90 % of the sweep
// must stay within TypicalTolerance (observed: ≥95 %).
func TestDifferentialTypicalQuota(t *testing.T) {
	typ := TypicalTolerance()
	pairs := runSweep(t)
	var out int
	for _, pr := range pairs {
		if diffs := metrics.Diff(pr.fixed, pr.event, typ); len(diffs) > 0 {
			out++
			t.Logf("outside typical tolerance: %v (%d fields: %s ...)", pr.p, len(diffs), diffs[0])
		}
	}
	if max := len(pairs) / 10; out > max {
		t.Errorf("%d/%d configs outside TypicalTolerance, quota is %d", out, len(pairs), max)
	}
}

// TestDifferentialAggregate sums every numeric Results field across the
// sweep and requires the engine totals to agree within 30 % (±20 for
// small counts). Per-config chaos is roughly symmetric, so aggregate bias
// indicates a systematic engine divergence even when every individual run
// is inside its ceiling.
func TestDifferentialAggregate(t *testing.T) {
	const (
		aggRel = 0.30
		aggAbs = 20.0
	)
	pairs := runSweep(t)
	sums := map[string][2]float64{}
	order := []string{}
	for _, pr := range pairs {
		va, vb := reflect.ValueOf(pr.fixed), reflect.ValueOf(pr.event)
		rt := va.Type()
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			var a, b float64
			switch f.Type.Kind() {
			case reflect.Int:
				a, b = float64(va.Field(i).Int()), float64(vb.Field(i).Int())
			case reflect.Float64:
				a, b = va.Field(i).Float(), vb.Field(i).Float()
			case reflect.Array:
				for k := 0; k < f.Type.Len(); k++ {
					a += float64(va.Field(i).Index(k).Int())
					b += float64(vb.Field(i).Index(k).Int())
				}
			default:
				continue
			}
			if _, seen := sums[f.Name]; !seen {
				order = append(order, f.Name)
			}
			s := sums[f.Name]
			sums[f.Name] = [2]float64{s[0] + a, s[1] + b}
		}
	}
	for _, name := range order {
		s := sums[name]
		diff := math.Abs(s[0] - s[1])
		if diff <= math.Max(aggRel*math.Max(math.Abs(s[0]), math.Abs(s[1])), aggAbs) {
			continue
		}
		t.Errorf("aggregate %s: fixed total %g vs event total %g over %d configs",
			name, s[0], s[1], len(pairs))
	}
}

// TestGeneratorValidity: every sampled or normalized point must build a
// valid configuration for both engines and stay inside the lattice.
func TestGeneratorValidity(t *testing.T) {
	for i := int64(0); i < 100; i++ {
		p := Random(i)
		if p != p.Normalize() {
			t.Fatalf("Random(%d) = %v outside its own lattice", i, p)
		}
		for _, kind := range []engine.Kind{engine.FixedIncrement, engine.EventDriven, engine.Lockstep} {
			cfg, err := p.Config(kind)
			if err != nil {
				t.Fatalf("%v: %v", p, err)
			}
			if _, err := engine.New(cfg); err != nil {
				t.Fatalf("%v: engine.New: %v", p, err)
			}
		}
	}
	// Hostile raw values must normalize into the lattice.
	hostile := Params{Seed: -9, Profile: -7, System: 999, PowerKind: -1,
		PowerMW: -50, NumEvents: 1 << 20, EventDurS: -3, Checkpoint: 17,
		JitterPct: 1000, CapMF: -2, BufCap: 0, CapturePerMS: -1}
	q := hostile.Normalize()
	if q != q.Normalize() {
		t.Fatalf("Normalize not idempotent: %v vs %v", q, q.Normalize())
	}
	if _, err := q.Config(engine.EventDriven); err != nil {
		t.Fatalf("normalized hostile params invalid: %v", err)
	}
}

// TestShrinkConverges: repeatedly taking the first shrink neighbour
// reaches a fixed point (no infinite shrink loops).
func TestShrinkConverges(t *testing.T) {
	p := Random(77)
	for i := 0; ; i++ {
		ns := p.Shrink()
		if len(ns) == 0 {
			break
		}
		p = ns[0]
		if i > 200 {
			t.Fatalf("shrink did not converge, at %v", p)
		}
	}
}
