package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"quetzal/internal/engine"
	"quetzal/internal/policy"
	"quetzal/internal/runner"
)

func leagueSetup() Setup {
	s := DefaultSetup()
	s.NumEvents = 15
	s.Engine = engine.EventDriven
	return s
}

// TestLeaguePlan pins the plan's shape and order: environment-major over
// the seven-environment gauntlet, all league policies present.
func TestLeaguePlan(t *testing.T) {
	keys := LeaguePlan(nil, nil)
	want := len(LeaguePolicies) * len(LeagueEnvironments)
	if len(keys) != want {
		t.Fatalf("LeaguePlan: %d keys, want %d", len(keys), want)
	}
	if len(LeaguePolicies) < 6 {
		t.Fatalf("league has %d policies, want at least 6", len(LeaguePolicies))
	}
	if len(LeagueEnvironments) != 7 {
		t.Fatalf("league has %d environments, want 7", len(LeagueEnvironments))
	}
	if last := LeagueEnvironments[len(LeagueEnvironments)-1]; last.Name != "faulty" || !last.Faults.Enabled() {
		t.Fatalf("last league environment = %+v, want the faulty realism environment", last)
	}
	for i, k := range keys {
		wantEnv := LeagueEnvironments[i/len(LeaguePolicies)]
		wantSys := LeaguePolicies[i%len(LeaguePolicies)]
		if k.Env != wantEnv || k.System != wantSys {
			t.Fatalf("keys[%d] = %s, want %s/%s", i, k, wantSys, wantEnv.Name)
		}
		if !policy.Known(k.System) {
			t.Fatalf("league policy %q is not registered", k.System)
		}
	}
}

// TestLeagueDeterministicAcrossWorkers pins the acceptance bar: the rendered
// league bytes must be identical between a serial sweep, a parallel sweep,
// and a rerun — per-run seeding plus ordered collection make worker count
// invisible.
func TestLeagueDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("league sweep is seconds of simulation; skipped under -short")
	}
	policies := []string{SysQuetzal, SysNoAdapt, SysAlwaysDeg, SysCatNap, SysPZO, SysMDP, SysEnSuRe, SysInterweave}
	render := func(workers int) string {
		sw := NewSweepConfig(leagueSetup(), runner.Config[RunKey]{Workers: workers})
		table, err := sw.League(context.Background(), policies)
		if err != nil {
			t.Fatalf("League(workers=%d): %v", workers, err)
		}
		var buf bytes.Buffer
		if err := table.Render(&buf); err != nil {
			t.Fatalf("Render: %v", err)
		}
		return buf.String()
	}
	serial := render(1)
	parallel := render(8)
	rerun := render(8)
	if serial != parallel {
		t.Fatalf("league differs between 1 and 8 workers:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if parallel != rerun {
		t.Fatal("league differs between identical reruns")
	}
	for _, env := range LeagueEnvironments {
		if !strings.Contains(serial, env.Name) {
			t.Fatalf("league output missing environment %q", env.Name)
		}
	}
	for _, p := range policies {
		if !strings.Contains(serial, p) {
			t.Fatalf("league output missing policy %q", p)
		}
	}
}

// TestSetupControllerRejects mirrors TestLookupRejects at the experiments
// seam: Setup.Controller is now a registry lookup, so the same strict
// spellings must fail with the experiments error prefix.
func TestSetupControllerRejects(t *testing.T) {
	s := leagueSetup()
	power, events := s.Traces(Crowded)
	app := s.Profile.PersonDetectionApp()
	for _, id := range []string{"", "magic", "quetzal", "QZ", "fixed-0", "fixed-101", "fixed-007", "fixed-25x"} {
		if _, _, err := s.Controller(id, app, power, events); err == nil {
			t.Errorf("Controller(%q) succeeded, want error", id)
		} else if !strings.Contains(err.Error(), "unknown policy") {
			t.Errorf("Controller(%q) error = %v, want 'unknown policy'", id, err)
		}
	}
	for _, id := range append(policy.Names(), "fixed-25") {
		if _, _, err := s.Controller(id, app, power, events); err != nil {
			t.Errorf("Controller(%q): %v", id, err)
		}
	}
}

// TestKeySpecPolicyAlias pins the wire alias: policy and system are the
// same dimension, and a request naming both with different values is
// ambiguous, not silently resolved.
func TestKeySpecPolicyAlias(t *testing.T) {
	viaSystem, err := KeySpec{System: SysMDP, Env: "crowded"}.RunKey()
	if err != nil {
		t.Fatalf("system form: %v", err)
	}
	viaPolicy, err := KeySpec{Policy: SysMDP, Env: "crowded"}.RunKey()
	if err != nil {
		t.Fatalf("policy form: %v", err)
	}
	if viaSystem != viaPolicy {
		t.Fatalf("alias resolved to a different key:\n%v\n%v", viaSystem, viaPolicy)
	}
	both, err := KeySpec{System: SysMDP, Policy: SysMDP, Env: "crowded"}.RunKey()
	if err != nil {
		t.Fatalf("agreeing pair: %v", err)
	}
	if both != viaSystem {
		t.Fatal("agreeing pair resolved differently")
	}
	if _, err := (KeySpec{System: SysQuetzal, Policy: SysMDP, Env: "crowded"}).RunKey(); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("conflicting pair: err = %v, want 'ambiguous'", err)
	}
}

// TestFleetSpecPolicyAlias pins the same contract on the fleet gate.
func TestFleetSpecPolicyAlias(t *testing.T) {
	viaSystem, err := FleetSpec{Devices: 8, System: SysEnSuRe, Env: "crowded"}.Plan()
	if err != nil {
		t.Fatalf("system form: %v", err)
	}
	viaPolicy, err := FleetSpec{Devices: 8, Policy: SysEnSuRe, Env: "crowded"}.Plan()
	if err != nil {
		t.Fatalf("policy form: %v", err)
	}
	if viaSystem != viaPolicy {
		t.Fatalf("alias resolved to a different plan:\n%v\n%v", viaSystem, viaPolicy)
	}
	if _, err := (FleetSpec{Devices: 8, System: SysQuetzal, Policy: SysEnSuRe, Env: "crowded"}).Plan(); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("conflicting pair: err = %v, want 'ambiguous'", err)
	}
}

// TestLeagueEnvironmentsResolvable pins that every league environment is
// reachable through the wire-level EnvByName gate.
func TestLeagueEnvironmentsResolvable(t *testing.T) {
	for _, env := range LeagueEnvironments {
		got, ok := EnvByName(env.Name)
		if !ok || got != env {
			t.Fatalf("EnvByName(%q) = %+v, %v", env.Name, got, ok)
		}
	}
}
