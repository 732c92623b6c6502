package main

// Fleet mode: -fleet N turns one quetzalsim invocation into a population
// sweep — N heterogeneous devices under correlated skies, streamed through
// the columnar fleet fold. Single-run flags (singleRunFlags) are rejected;
// fleet results are aggregates, not one device's history. Without -fleet,
// the fleet-only flags (fleetOnlyFlags) are rejected the same way.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"quetzal/internal/experiments"
	"quetzal/internal/faults"
	"quetzal/internal/fleet"
)

// fleetFlags carries the fleet-mode command line.
type fleetFlags struct {
	devices     int
	shard       int
	jitter      float64
	correlation float64
	progress    bool
	profile     string // -mcu, a profile registry name
}

// singleRunFlags name the flags that only shape a single run's output or
// setup; fleet mode has nothing to apply them to.
var singleRunFlags = []string{"timeline", "timelinesvg", "trace", "metrics", "cells", "capture", "v"}

// fleetOnlyFlags name the flags that only shape a fleet; a single run has
// nothing to apply them to.
var fleetOnlyFlags = []string{"shard", "jitter", "correlation", "progress"}

// validateFleetFlags rejects flags the chosen mode would silently ignore:
// single-run flags in a population sweep, and fleet-only flags in a single
// run. set reports whether a flag was given on the command line. Kept
// separate from main for table-driven tests.
func validateFleetFlags(f fleetFlags, set func(name string) bool) error {
	if f.devices <= 0 {
		for _, name := range fleetOnlyFlags {
			if set(name) {
				return fmt.Errorf("-%s applies to fleet runs only; add -fleet N", name)
			}
		}
		return nil
	}
	for _, name := range singleRunFlags {
		if set(name) {
			return fmt.Errorf("-fleet is an aggregate sweep; -%s applies to single runs only", name)
		}
	}
	return nil
}

// plan resolves the fleet command line into a validated fleet plan.
func (f fleetFlags) plan(system, envName string, events int, seed int64, engine string, faultSpec faults.Spec) (experiments.FleetPlan, error) {
	spec := experiments.FleetSpec{
		Devices:     f.devices,
		System:      system,
		Env:         envName,
		Profile:     f.profile,
		Events:      events,
		Seed:        seed,
		Engine:      engine, // "" → the fleet default (lockstep)
		ShardSize:   f.shard,
		Jitter:      f.jitter,
		Correlation: f.correlation,
		Faults:      faultSpec,
	}
	return spec.Plan()
}

// runFleet executes the fleet and renders it as JSON (an aggregate +
// stats document) or a human summary.
func runFleet(plan experiments.FleetPlan, progress, jsonOut bool) error {
	opts := fleet.Options{}
	if progress {
		start := time.Now()
		opts.OnProgress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "[fleet] %d/%d devices (%.0f/s)\n",
				done, total, float64(done)/time.Since(start).Seconds())
		}
	}
	agg, stats, err := fleet.Run(context.Background(), plan, opts)
	if err != nil {
		return err
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Plan      string           `json:"plan"`
			Aggregate *fleet.Aggregate `json:"aggregate"`
			Stats     fleet.RunStats   `json:"stats"`
		}{plan.String(), agg, stats})
	}

	fmt.Printf("%s\n", plan)
	fmt.Printf("  %d devices in %.1fs (%.0f devices/s, peak heap %.1f MiB)\n",
		stats.Devices, stats.ElapsedSec, stats.DevicesPerSec, float64(stats.PeakHeapBytes)/(1<<20))
	fmt.Printf("  fleet IBO %.2f%%  discarded %.2f%%  high quality %.1f%%  capture miss %.2f%%\n",
		agg.IBOFraction*100, agg.DiscardedFraction*100, agg.HighQualityShare*100, agg.CaptureMissFraction*100)
	fmt.Printf("  energy: harvested %.1f J, consumed %.1f J, wasted %.1f J\n",
		agg.HarvestedJoules, agg.ConsumedJoules, agg.WastedJoules)
	for _, h := range []struct{ label, key string }{
		{"IBO fraction   ", "ibo_fraction"},
		{"discarded      ", "discarded_fraction"},
		{"high quality   ", "high_quality_share"},
		{"capture miss   ", "capture_miss_fraction"},
		{"wasted J       ", "wasted_joules"},
	} {
		d := agg.Histograms[h.key]
		fmt.Printf("  %s p50 %.3g  p90 %.3g  p99 %.3g  (min %.3g, max %.3g)\n",
			h.label, d.P50, d.P90, d.P99, d.Min, d.Max)
	}
	return nil
}
