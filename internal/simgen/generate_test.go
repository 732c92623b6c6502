package simgen

import (
	"strings"
	"testing"

	"quetzal/internal/engine"
)

func TestRandomDeterministic(t *testing.T) {
	if Random(42) != Random(42) {
		t.Fatal("Random is not deterministic per seed")
	}
	if Random(1) == Random(2) {
		t.Fatal("distinct seeds produced identical params (suspicious)")
	}
}

func TestRandomCoversSpace(t *testing.T) {
	profiles := map[int]bool{}
	systems := map[int]bool{}
	powers := map[int]bool{}
	for i := int64(0); i < 200; i++ {
		p := Random(i)
		profiles[p.Profile] = true
		systems[p.System] = true
		powers[p.PowerKind] = true
	}
	if len(profiles) != numProfiles || len(systems) != numSystems || len(powers) != numPowerKinds {
		t.Fatalf("200 samples covered %d/%d profiles, %d/%d systems, %d/%d power kinds",
			len(profiles), numProfiles, len(systems), numSystems, len(powers), numPowerKinds)
	}
}

func TestStringRecipe(t *testing.T) {
	p := Random(5)
	s := p.String()
	for _, want := range []string{"seed=5", p.SystemName(), powerNames[p.PowerKind]} {
		if !strings.Contains(s, want) {
			t.Errorf("recipe %q missing %q", s, want)
		}
	}
}

// FuzzParams drives the config sampler from arbitrary knob values: any
// integer assignment must normalize into a valid configuration whose
// (short, event-driven) run completes with every runtime invariant intact.
func FuzzParams(f *testing.F) {
	for _, s := range []int64{0, 1, 77} {
		p := Random(s)
		f.Add(p.Seed, p.Profile, p.System, p.PowerKind, p.PowerMW, p.NumEvents,
			p.EventDurS, p.Checkpoint, p.JitterPct, p.CapMF, p.BufCap, p.CapturePerMS)
	}
	f.Add(int64(-1), -7, 999, -1, -50, 1<<20, -3, 17, 1000, -2, 0, -1)
	f.Fuzz(func(t *testing.T, seed int64, profile, system, powerKind, powerMW,
		numEvents, eventDur, ckpt, jitter, capMF, bufCap, captureMS int) {
		p := Params{
			Seed: seed, Profile: profile, System: system, PowerKind: powerKind,
			PowerMW: powerMW, NumEvents: numEvents, EventDurS: eventDur,
			Checkpoint: ckpt, JitterPct: jitter, CapMF: capMF, BufCap: bufCap,
			CapturePerMS: captureMS,
		}.Normalize()
		// Keep fuzz executions quick: smallest trace in the lattice.
		p.NumEvents = minEvents
		p.EventDurS = minEventDur
		// Run with checks on (the default); an invariant violation or any
		// other error here is a real bug in generator or simulator.
		if _, err := p.Run(engine.EventDriven); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
	})
}
