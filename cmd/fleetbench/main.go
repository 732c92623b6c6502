// Command fleetbench measures fleet-scale simulation throughput and memory,
// and writes the evidence file BENCH_fleet.json: devices/s and peak heap at
// each population size, plus a digest of the aggregate so two machines can
// confirm they computed the identical fleet.
//
// Usage:
//
//	fleetbench [-sizes 10000,100000,1000000] [-system qz | -policy NAME] [-env less-crowded]
//	           [-stepper lockstep|event] [-jitter 0.1] [-seed 42] [-shard N]
//	           [-faults SPEC] [-temp SPEC] [-meascost SPEC]
//	           [-out BENCH_fleet.json] [-progress]
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"quetzal/internal/experiments"
	"quetzal/internal/faults"
	"quetzal/internal/fleet"
)

// sizeRun is one population-size measurement in the output file.
type sizeRun struct {
	Devices         int     `json:"devices"`
	Shards          int     `json:"shards"`
	ElapsedSec      float64 `json:"elapsed_sec"`
	DevicesPerSec   float64 `json:"devices_per_sec"`
	PeakHeapBytes   uint64  `json:"peak_heap_bytes"`
	PeakHeapMiB     float64 `json:"peak_heap_mib"`
	AggregateSHA256 string  `json:"aggregate_sha256"`
}

// benchFile is the BENCH_fleet.json schema.
type benchFile struct {
	Description string         `json:"description"`
	Environment map[string]any `json:"environment"`
	Plan        string         `json:"plan"`
	Engine      string         `json:"engine"`
	Runs        []sizeRun      `json:"runs"`
	Notes       string         `json:"notes,omitempty"`
}

// resolveSystem merges the -system and -policy spellings of the controller
// dimension (aliases of one axis — the policy registry name).
func resolveSystem(system, policy string) (string, error) {
	if system != "" && policy != "" && system != policy {
		return "", fmt.Errorf("-system %q conflicts with -policy %q (they are aliases; set one)", system, policy)
	}
	if policy != "" {
		return policy, nil
	}
	if system != "" {
		return system, nil
	}
	return "qz", nil
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// aggregateDigest is aggregate_sha256: the sha256 of the marshaled
// Aggregate.
func aggregateDigest(agg *fleet.Aggregate) (string, error) {
	b, err := json.Marshal(agg)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func main() {
	var (
		sizes    = flag.String("sizes", "10000,100000,1000000", "comma-separated fleet sizes to measure")
		system   = flag.String("system", "", `controller under test (default "qz")`)
		policyID = flag.String("policy", "", "alias for -system: the policy registry name")
		envName  = flag.String("env", "less-crowded", "sensing environment")
		jitter   = flag.Float64("jitter", 0.1, "per-device parameter jitter fraction")
		seed     = flag.Int64("seed", 42, "fleet seed")
		shardSz  = flag.Int("shard", 0, "devices per shard (0 = planner default); the digest must not depend on it")
		stepper  = flag.String("stepper", "lockstep", "time-advance engine: lockstep (default), event or fixed — aggregate_sha256 is identical for lockstep and event")
		out      = flag.String("out", "BENCH_fleet.json", "output file")
		progress = flag.Bool("progress", false, "log shard progress to stderr")
		notes    = flag.String("notes", "", "notes field for the output file")
		faultsF  = flag.String("faults", "", `fault injection: "task=PCT[%][,limit=K][,dropout=START+DUR[/PERIOD]][,stuck=HIGH[:LOW]]"`)
		tempF    = flag.String("temp", "", `junction temperature °C: "C[+SWING[/PERIOD]]"`)
		measF    = flag.String("meascost", "", `per-sample measurement cost: "NJ[:US]"`)
	)
	flag.Parse()

	ns, err := parseSizes(*sizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	systemID, err := resolveSystem(*system, *policyID)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	faultSpec, err := faults.FromFlags(*faultsF, *tempF, *measF)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	file := benchFile{
		Description: "Fleet-scale simulation benchmark: fleet.Run executes N heterogeneous devices " +
			"(per-device parameter jitter, correlated solar skies, per-device event traces) sharded " +
			"over the batch runner and folded in device order into the columnar accumulator. " +
			"devices_per_sec is end-to-end throughput including device construction; peak_heap_bytes " +
			"is the largest runtime HeapAlloc sampled at fold points — the bounded-RSS evidence: it " +
			"must stay O(window x shard), not O(devices). aggregate_sha256 digests the marshaled " +
			"Aggregate; it is invariant across shard sizes and worker counts (TestFleetDeterminism).",
		Environment: map[string]any{
			"goos":   runtime.GOOS,
			"goarch": runtime.GOARCH,
			"cpus":   runtime.NumCPU(),
			"go":     runtime.Version(),
		},
		Notes: *notes,
	}

	for i, n := range ns {
		spec := experiments.FleetSpec{
			Devices:   n,
			System:    systemID,
			Env:       *envName,
			Seed:      *seed,
			Engine:    *stepper,
			Jitter:    *jitter,
			ShardSize: *shardSz,
			Faults:    faultSpec,
		}
		plan, err := spec.Plan()
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
			os.Exit(2)
		}
		if i == 0 {
			file.Plan = plan.String() // sizes vary; the rest of the plan is shared
			file.Engine = plan.Engine.String()
		}

		opts := fleet.Options{}
		if *progress {
			start := time.Now()
			last := 0
			opts.OnProgress = func(done, total int) {
				// At 1M devices a line per shard would be thousands of lines;
				// log at ~1% granularity.
				if done-last >= total/100 || done == total {
					last = done
					fmt.Fprintf(os.Stderr, "[%d] %d/%d devices (%.0f/s)\n",
						n, done, total, float64(done)/time.Since(start).Seconds())
				}
			}
		}
		fmt.Fprintf(os.Stderr, "fleetbench: %s\n", plan)
		agg, stats, err := fleet.Run(context.Background(), plan, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
			os.Exit(1)
		}
		digest, err := aggregateDigest(agg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
			os.Exit(1)
		}
		file.Runs = append(file.Runs, sizeRun{
			Devices:         stats.Devices,
			Shards:          stats.Shards,
			ElapsedSec:      stats.ElapsedSec,
			DevicesPerSec:   stats.DevicesPerSec,
			PeakHeapBytes:   stats.PeakHeapBytes,
			PeakHeapMiB:     float64(stats.PeakHeapBytes) / (1 << 20),
			AggregateSHA256: digest,
		})
		fmt.Fprintf(os.Stderr, "fleetbench: %d devices in %.1fs (%.0f devices/s, peak heap %.1f MiB)\n",
			stats.Devices, stats.ElapsedSec, stats.DevicesPerSec, float64(stats.PeakHeapBytes)/(1<<20))
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(file); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "fleetbench: wrote %s\n", *out)
}
