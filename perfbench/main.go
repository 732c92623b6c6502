// Command perfbench is the repository's benchmark: it drives the quetzal
// simulator, fleet runner and quetzald service from outside, through their
// public Go APIs, and prints one JSON result line.
//
//	perfbench --workload fleet-qz|crawl-noadapt|quetzald-mixed \
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer ledger, and the spans and a CPU profile are
// written under .bench_build/trace/. Every workload checks its outputs
// (digests pinned for the default seed in pins.go, self-consistency on any
// seed) and reports correct=false with exit status 1 on a mismatch. See
// NOTES.md for what each workload and metric means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics every workload reports with --trace 0, in the
// order BENCHMARK.json lists them. What one "operation" is differs per
// workload (NOTES.md).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"peak_heap_mib", "MiB"},
}

// perLayer are the metrics every workload reports with --trace 1. A layer
// the workload does not reach reads 0.
var perLayer = []metricSpec{
	{"trace.events_us", "us"},
	{"trace.solar_us", "us"},
	{"policy.build_us", "us"},
	{"engine.new_us", "us"},
	{"engine.alloc_kib", "KiB"},
	{"engine.step_self_ms", "ms"},
	{"engine.replayed_steps", "count"},
	{"engine.self_frac", "ratio"},
	{"controller.calls", "count"},
	{"controller.next_job_ns_p50", "ns"},
	{"controller.next_job_ns_tail", "ns"},
	{"controller.self_frac", "ratio"},
	{"fleet.jitter_us", "us"},
	{"fleet.summarize_ns", "ns"},
	{"fleet.fold_us", "us"},
	{"runner.executed", "count"},
	{"runner.cache_hits", "count"},
	{"runner.hit_frac", "ratio"},
	{"runner.queue_wait_ms_mean", "ms"},
	{"runner.run_ms_p50", "ms"},
	{"runner.run_ms_tail", "ms"},
	{"service.simulate_ms_p50", "ms"},
	{"service.simulate_ms_tail", "ms"},
	{"service.self_ms_p50", "ms"},
	{"service.self_ms_tail", "ms"},
	{"service.hit_ms_p50", "ms"},
	{"service.shed", "count"},
	{"service.coalesced", "count"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"store.puts", "count"},
	{"store.hit_frac", "ratio"},
	{"store.open_ms", "ms"},
	{"store.cold_overhead_ms", "ms"},
	{"gen.late_tail_ms", "ms"},
	{"tracing.overhead_frac", "ratio"},
	{"tracing.spans", "count"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// outDir receives spans and the CPU profile of a traced run; workDir is
	// scratch space (store directories) removed on exit.
	outDir, workDir string
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload hands back: the correctness verdict, operation
// counts and named values. Notes go to standard error.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	values    map[string]float64
}

func newResult() *result { return &result{Correct: true, values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

// fail marks the run incorrect and says why on standard error.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: "+format+"\n", args...)
}

// note prints a diagnostic line on standard error.
func note(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// noteQ prints which percentile a reported quantile is, with its count.
func noteQ(name string, q quantile) {
	note("%s = p%d of %d samples = %.4g", name, q.P, q.N, q.Value)
}

var workloads = map[string]func(config) (*result, error){
	"fleet-qz":       runFleetQZ,
	"crawl-noadapt":  runCrawl,
	"quetzald-mixed": runQuetzald,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: fleet-qz, crawl-noadapt or quetzald-mixed")
		seed    = flag.Int64("seed", defaultSeed, "workload seed; digests are pinned for the default")
		seconds = flag.Float64("seconds", 10, "how long to measure")
		traceF  = flag.Int("trace", 0, "1 = traced run reporting the per-layer ledger")
	)
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceF != 0 && *traceF != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 (workloads: fleet-qz, crawl-noadapt, quetzald-mixed)\n")
		os.Exit(2)
	}
	workDir, err := makeWorkDir()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := config{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traceF == 1,
		outDir:   filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d", *name, *seed)),
		workDir:  workDir,
	}
	code := run(fn, cfg)
	if err := os.RemoveAll(workDir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: removing %s: %v\n", workDir, err)
	}
	os.Exit(code)
}

func run(fn func(config) (*result, error), cfg config) int {
	note("%s seed=%d seconds=%g trace=%v GOMAXPROCS=%d", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0))
	rep, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	line, err := resultLine(rep, cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// resultLine renders the final JSON object. End-to-end metrics must all be
// present; per-layer metrics a workload did not reach read 0.
func resultLine(rep *result, traced bool) ([]byte, error) {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, make(map[string]metric, len(specs))}
	var missing []string
	for _, s := range specs {
		v, ok := rep.values[s.name]
		if !ok && !traced {
			missing = append(missing, s.name)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.name, v)
		}
		out.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("workload did not report %v", missing)
	}
	if out.Attempted < 1 {
		return nil, errors.New("workload attempted no operations")
	}
	return json.Marshal(out)
}

// makeWorkDir creates this invocation's scratch directory under
// .bench_build, inside the checkout.
func makeWorkDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "work-")
}

// checkDigest compares a workload digest with the pinned value for the
// default seed and with the first digest of this run on any seed.
func checkDigest(rep *result, what string, seed int64, first *string, got string) {
	if *first == "" {
		*first = got
		note("%s digest %s (seed %d)", what, got, seed)
		if want, ok := pinned(what, seed); ok && want != got {
			rep.fail("%s digest %s, pinned %s for seed %d", what, got, want, seed)
		}
		return
	}
	if got != *first {
		rep.fail("%s digest changed between repetitions: %s then %s", what, *first, got)
	}
}

// setupReps is how many times each workload sets up; setup_s is the median.
const setupReps = 3

// timeSetup runs setup setupReps times and returns the median seconds. The
// last repetition's state is the one the measurement uses.
func timeSetup(setup func() error) (float64, error) {
	var secs []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

// repeat calls rep until the window of the given seconds is used up, with
// at least minReps (≥ 1) calls. It starts another repetition only while that one
// is expected to end nearer the window's end than stopping now would, so a
// run measures for about the requested time.
func repeat(seconds float64, minReps int, rep func() error) error {
	start := time.Now()
	for n := 0; ; n++ {
		elapsed := time.Since(start).Seconds()
		if n >= minReps && elapsed+elapsed/float64(n)/2 >= seconds {
			return nil
		}
		if err := rep(); err != nil {
			return err
		}
	}
}

// overheadFrac is the tracing overhead on a higher-is-better headline: how
// much slower the traced phase ran than the untraced one.
func overheadFrac(untraced, traced float64) float64 {
	if traced <= 0 {
		return 0
	}
	return untraced/traced - 1
}
