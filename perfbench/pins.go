package main

// defaultSeed is the seed the correctness digests are pinned for (the
// repository's own default experiment and fleet seed).
const defaultSeed = 42

// pins holds the digests each deterministic workload must reproduce on the
// default seed. On any other seed the workloads check self-consistency only:
// every repetition must reproduce the run's first digest.
var pins = map[string]string{
	// fleet.Aggregate sha256, as cmd/fleetbench's aggregate_sha256.
	"fleet-qz": "2d28dc9e20ad7751c7c3ec3076ad7b567867166cba6d87603ea9198cbda34e59",
	// sha256 over the JSON lines of every device's metrics.Summary.
	"crawl-noadapt": "f2312a9386ab2bd72ec422e889b4453e078b137ee9370da81aeb5ff7dcd3d6a7",
}

func pinned(workload string, seed int64) (string, bool) {
	if seed != defaultSeed {
		return "", false
	}
	d, ok := pins[workload]
	return d, ok
}
