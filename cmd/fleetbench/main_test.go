package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"quetzal/internal/experiments"
	"quetzal/internal/fleet"
)

func TestParseSizes(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    []int
		wantErr bool
	}{
		{in: "10000", want: []int{10000}},
		{in: "10000,100000,1000000", want: []int{10000, 100000, 1000000}},
		{in: " 500 , 2000 ", want: []int{500, 2000}},
		{in: "", wantErr: true},
		{in: "0", wantErr: true},
		{in: "-5", wantErr: true},
		{in: "10,abc", wantErr: true},
		{in: "10,,20", wantErr: true},
		{in: "1e4", wantErr: true},
	} {
		got, err := parseSizes(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseSizes(%q) error = %v, want error %v", tc.in, err, tc.wantErr)
			continue
		}
		if !tc.wantErr && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseSizes(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestResolveSystem(t *testing.T) {
	for _, tc := range []struct {
		system, policy string
		want           string
		wantErr        bool
	}{
		{want: "qz"},
		{system: "na", want: "na"},
		{policy: "ensure", want: "ensure"},
		{system: "qz", policy: "qz", want: "qz"},
		{system: "qz", policy: "na", wantErr: true},
	} {
		got, err := resolveSystem(tc.system, tc.policy)
		if (err != nil) != tc.wantErr {
			t.Errorf("resolveSystem(%q, %q) error = %v, want error %v", tc.system, tc.policy, err, tc.wantErr)
			continue
		}
		if got != tc.want {
			t.Errorf("resolveSystem(%q, %q) = %q, want %q", tc.system, tc.policy, got, tc.want)
		}
	}
}

// TestBenchFleetDigestReproduces re-runs the committed BENCH_fleet.json plan
// at its 10 000-device size and requires the recorded aggregate_sha256, so a
// change that moves the fleet aggregate cannot leave the file stale.
func TestBenchFleetDigestReproduces(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_fleet.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	const devices = 10000
	var want string
	for _, r := range file.Runs {
		if r.Devices == devices {
			want = r.AggregateSHA256
		}
	}
	if want == "" {
		t.Fatalf("BENCH_fleet.json has no %d-device run", devices)
	}

	// fleetbench's defaults, which the file was generated with.
	plan, err := experiments.FleetSpec{
		Devices: devices,
		System:  "qz",
		Env:     "less-crowded",
		Seed:    42,
		Engine:  "lockstep",
		Jitter:  0.1,
	}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.String() != file.Plan || plan.Engine.String() != file.Engine {
		t.Fatalf("BENCH_fleet.json records plan %q on %s; fleetbench defaults give %q on %s",
			file.Plan, file.Engine, plan, plan.Engine)
	}
	agg, _, err := fleet.Run(context.Background(), plan, fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := aggregateDigest(agg)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("%d-device aggregate_sha256 = %s, BENCH_fleet.json records %s: regenerate the file (go run ./cmd/fleetbench)",
			devices, got, want)
	}
}
