package main

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"quetzal/internal/faults"
	"quetzal/internal/obs"
)

func TestResolveEnv(t *testing.T) {
	for _, name := range []string{"more-crowded", "crowded", "less-crowded", "msp430-crowded"} {
		if _, err := resolveEnv(name); err != nil {
			t.Errorf("resolveEnv(%q): %v", name, err)
		}
	}
	if _, err := resolveEnv("mars"); err == nil {
		t.Error("resolveEnv(mars): want error")
	}
}

func TestResolveMCU(t *testing.T) {
	for _, name := range []string{"apollo4", "msp430", "stm32g0"} {
		if _, err := resolveMCU(name); err != nil {
			t.Errorf("resolveMCU(%q): %v", name, err)
		}
	}
	if _, err := resolveMCU("z80"); err == nil {
		t.Error("resolveMCU(z80): want error")
	}
}

// TestValidateFleetFlags: in fleet mode every single-run flag is rejected
// by name, never silently ignored; fleet-honoured flags pass, and outside
// fleet mode nothing is rejected.
func TestValidateFleetFlags(t *testing.T) {
	type fleetCase struct {
		name    string
		f       fleetFlags
		set     []string
		wantErr string // substring; empty → must pass
	}
	fleetMode := fleetFlags{devices: 200}
	cases := []fleetCase{
		{name: "no flags", f: fleetMode},
		{name: "fleet-honoured flags", f: fleetMode,
			set: []string{"fleet", "mcu", "pprof", "json", "seed", "events", "system", "env",
				"stepper", "faults", "shard", "jitter", "correlation", "progress"}},
		{name: "single run keeps its flags", f: fleetFlags{},
			set: []string{"timeline", "metrics", "cells", "capture", "v"}},
	}
	for _, flagName := range singleRunFlags {
		cases = append(cases, fleetCase{name: "-" + flagName, f: fleetMode, set: []string{flagName},
			wantErr: "-" + flagName + " applies to single runs"})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := func(name string) bool { return slices.Contains(tc.set, name) }
			err := validateFleetFlags(tc.f, set)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
	for _, want := range []string{"metrics", "cells", "capture", "v", "trace", "timeline", "timelinesvg"} {
		if !slices.Contains(singleRunFlags, want) {
			t.Errorf("singleRunFlags lacks %q: fleet mode would silently ignore it", want)
		}
	}
}

// TestFleetPlanProfile: -mcu reaches the fleet plan instead of being
// dropped; an unknown name is an error.
func TestFleetPlanProfile(t *testing.T) {
	f := fleetFlags{devices: 200, profile: "msp430"}
	plan, err := f.plan("qz", "crowded", 5, 42, "", faults.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.String(), "profile=msp430") {
		t.Fatalf("plan %q does not name the msp430 profile", plan)
	}
	f.profile = "z80"
	if _, err := f.plan("qz", "crowded", 5, 42, "", faults.Spec{}); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestValidateObsFlags(t *testing.T) {
	dir := t.TempDir()
	in := func(name string) string { return filepath.Join(dir, name) }
	cases := []struct {
		name     string
		cli      obs.CLI
		timeline string
		wantErr  string // substring; empty → must pass
	}{
		{name: "all empty"},
		{
			name: "all valid",
			cli:  obs.CLI{Trace: in("t.json"), Metrics: in("m.txt"), Pprof: "localhost:0"},
		},
		{
			name:    "trace and metrics same file",
			cli:     obs.CLI{Trace: in("out"), Metrics: in("out")},
			wantErr: "same file",
		},
		{
			name:    "trace parent dir missing",
			cli:     obs.CLI{Trace: filepath.Join(dir, "no-such-dir", "t.json")},
			wantErr: "trace",
		},
		{
			name:    "metrics parent dir missing",
			cli:     obs.CLI{Metrics: filepath.Join(dir, "no-such-dir", "m.txt")},
			wantErr: "metrics",
		},
		{
			name:    "pprof address without port",
			cli:     obs.CLI{Pprof: "localhost"},
			wantErr: "pprof",
		},
		{
			name:     "timeline collides with trace",
			cli:      obs.CLI{Trace: in("shared.csv")},
			timeline: in("shared.csv"),
			wantErr:  "-timeline conflicts",
		},
		{
			name:     "timeline collides with metrics",
			cli:      obs.CLI{Metrics: in("shared.txt")},
			timeline: in("shared.txt"),
			wantErr:  "-timeline conflicts",
		},
		{
			name:     "timeline distinct from sinks",
			cli:      obs.CLI{Trace: in("t.json"), Metrics: in("m.txt")},
			timeline: in("tl.csv"),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateObsFlags(tc.cli, tc.timeline)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}
