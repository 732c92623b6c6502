package experiments

import (
	"math"
	"strings"
	"testing"

	"quetzal/internal/engine"
)

func TestFleetSpecPlanDefaults(t *testing.T) {
	plan, err := FleetSpec{Devices: 1000, System: SysQuetzal, Env: "crowded"}.Plan()
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	want := FleetPlan{
		Devices:     1000,
		System:      SysQuetzal,
		Env:         Crowded,
		Profile:     ProfileApollo4,
		Events:      DefaultFleetEvents,
		Seed:        DefaultFleetSeed,
		Engine:      engine.Lockstep,
		ShardSize:   DefaultFleetShard,
		Jitter:      0,
		Correlation: DefaultFleetCorrelation,
	}
	if plan != want {
		t.Fatalf("plan = %+v, want %+v", plan, want)
	}
}

func TestFleetSpecPlanCustomEnv(t *testing.T) {
	plan, err := FleetSpec{
		Devices: 10, System: SysNoAdapt, Env: "lab", MaxDuration: 12.5,
		Events: 2, Seed: 7, ShardSize: 4, Jitter: 0.25, Correlation: 0.5,
	}.Plan()
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if plan.Env.Name != "lab" || plan.Env.MaxDuration != 12.5 {
		t.Fatalf("custom env not carried: %+v", plan.Env)
	}
	if plan.Events != 2 || plan.Seed != 7 || plan.ShardSize != 4 ||
		plan.Jitter != 0.25 || plan.Correlation != 0.5 {
		t.Fatalf("explicit fields not carried: %+v", plan)
	}
}

func TestFleetSpecPlanRejects(t *testing.T) {
	valid := func() FleetSpec {
		return FleetSpec{Devices: 100, System: SysQuetzal, Env: "crowded"}
	}
	cases := []struct {
		name   string
		mutate func(*FleetSpec)
		want   string // substring of the error
	}{
		{"zero devices", func(s *FleetSpec) { s.Devices = 0 }, "devices must be positive"},
		{"negative devices", func(s *FleetSpec) { s.Devices = -5 }, "devices must be positive"},
		{"too many devices", func(s *FleetSpec) { s.Devices = MaxFleetDevices + 1 }, "at most"},
		{"missing system", func(s *FleetSpec) { s.System = "" }, "missing system"},
		{"unknown system", func(s *FleetSpec) { s.System = "warp" }, "unknown system"},
		{"ideal has no fleet", func(s *FleetSpec) { s.System = SysIdeal }, "no fleet form"},
		{"missing env", func(s *FleetSpec) { s.Env = "" }, "missing env"},
		{"unknown env without duration", func(s *FleetSpec) { s.Env = "mars" }, "custom envs need max_duration"},
		{"known env duration mismatch", func(s *FleetSpec) { s.MaxDuration = 99 }, "omit max_duration"},
		{"custom env duration too small", func(s *FleetSpec) { s.Env = "mars"; s.MaxDuration = 0.01 }, "max_duration must be in"},
		{"custom env duration too large", func(s *FleetSpec) { s.Env = "mars"; s.MaxDuration = 1e9 }, "max_duration must be in"},
		{"env name too long", func(s *FleetSpec) { s.Env = strings.Repeat("x", 65); s.MaxDuration = 10 }, "longer than 64"},
		{"nan duration", func(s *FleetSpec) { s.MaxDuration = math.NaN() }, "finite"},
		{"unknown profile", func(s *FleetSpec) { s.Profile = "z80" }, "unknown profile"},
		{"unknown engine", func(s *FleetSpec) { s.Engine = "quantum" }, "engine"},
		{"negative events", func(s *FleetSpec) { s.Events = -1 }, "events must be in"},
		{"too many events", func(s *FleetSpec) { s.Events = MaxSpecEvents + 1 }, "events must be in"},
		{"oversize shard", func(s *FleetSpec) { s.ShardSize = MaxFleetShard + 1 }, "shard_size must be in"},
		{"negative jitter", func(s *FleetSpec) { s.Jitter = -0.1 }, "jitter must be in"},
		{"excess jitter", func(s *FleetSpec) { s.Jitter = 0.6 }, "jitter must be in"},
		{"nan jitter", func(s *FleetSpec) { s.Jitter = math.NaN() }, "finite"},
		{"excess correlation", func(s *FleetSpec) { s.Correlation = 1.5 }, "correlation must be in"},
		{"work cap", func(s *FleetSpec) { s.Devices = MaxFleetDevices; s.Events = MaxSpecEvents }, "work cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := valid()
			tc.mutate(&spec)
			_, err := spec.Plan()
			if err == nil {
				t.Fatalf("Plan accepted %+v", spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestFleetSpecWorkCapAdmitsHeadline ensures the caps leave room for the
// headline sweep: one million devices at the default event count.
func TestFleetSpecWorkCapAdmitsHeadline(t *testing.T) {
	plan, err := FleetSpec{Devices: 1_000_000, System: SysQuetzal, Env: "less-crowded"}.Plan()
	if err != nil {
		t.Fatalf("1M-device default plan rejected: %v", err)
	}
	if plan.Devices != 1_000_000 {
		t.Fatalf("plan devices = %d", plan.Devices)
	}
}
