package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"time"
)

// maxSteal is the share of the host's CPU time a hypervisor may steal
// during a repetition before the repetition counts as measuring the
// neighbours rather than the program.
const maxSteal = 0.10

// cpuTicks reads the aggregate CPU line of /proc/stat: ticks stolen by the
// hypervisor and ticks in total (user through steal). ok is false where the
// file is unavailable.
func cpuTicks() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter measures the stolen share of CPU time over an interval.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := cpuTicks()
	return stealMeter{s, t, ok}
}

// frac returns the share of CPU time stolen since start; 0 when unknown.
func (m stealMeter) frac() float64 {
	s, t, ok := cpuTicks()
	if !ok || !m.ok || t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// repOut is one repetition's share of the end-to-end metrics.
type repOut struct {
	rate  float64   // throughput
	heap  float64   // peak heap, MiB
	lat   []float64 // latency samples, ms
	steal float64   // share of CPU time stolen while it ran
}

// measure repeats rep over the window (see repeat) and records how much CPU
// time the hypervisor stole during each repetition.
func measure(seconds float64, minReps int, rep func() (repOut, error)) ([]repOut, error) {
	var out []repOut
	err := repeat(seconds, minReps, func() error {
		m := startSteal()
		r, err := rep()
		if err != nil {
			return err
		}
		r.steal = m.frac()
		out = append(out, r)
		return nil
	})
	return out, err
}

// setEndToEnd reports throughput, latency and peak heap over the
// repetitions that ran with at most maxSteal of the CPU stolen, as long as
// those are at least half of them; otherwise over all, with a note. what
// names the latency samples for the diagnostics.
func setEndToEnd(rep *result, reps []repOut, what string) {
	kept := make([]repOut, 0, len(reps))
	for _, r := range reps {
		if r.steal <= maxSteal {
			kept = append(kept, r)
		}
	}
	switch {
	case len(kept)*2 < len(reps):
		note("the hypervisor stole > %.0f%% of CPU time in %d of %d repetitions; reporting all of them",
			100*maxSteal, len(reps)-len(kept), len(reps))
		kept = reps
	case len(kept) < len(reps):
		note("excluding %d of %d repetitions during which the hypervisor stole > %.0f%% of CPU time",
			len(reps)-len(kept), len(reps), 100*maxSteal)
	}
	var rates, heaps, lats []float64
	for _, r := range kept {
		rates = append(rates, r.rate)
		heaps = append(heaps, r.heap)
		lats = append(lats, r.lat...)
	}
	tail := tailOf(lats)
	noteQ("latency_tail_ms ("+what+")", tail)
	note("%d repetitions, throughput %v", len(kept), rates)
	rep.set("throughput_per_s", median(rates))
	rep.set("latency_p50_ms", percentileOf(lats, 50).Value)
	rep.set("latency_tail_ms", tail.Value)
	rep.set("peak_heap_mib", median(heaps))
}

// stealSeries samples the stolen share of CPU time once per interval from a
// background goroutine; slot k covers [start+k·every, start+(k+1)·every).
type stealSeries struct {
	start      time.Time
	every      time.Duration
	stop, done chan struct{}
	fracs      []float64
}

func watchSteal(every time.Duration) *stealSeries {
	s := &stealSeries{start: time.Now(), every: every, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		m := startSteal()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.fracs = append(s.fracs, m.frac())
				m = startSteal()
			}
		}
	}()
	return s
}

// end stops the sampler and waits for it.
func (s *stealSeries) end() {
	close(s.stop)
	<-s.done
}

// fracOver returns the mean stolen share over the samples whose interval
// ends within (from, to].
func (s *stealSeries) fracOver(from, to time.Time) float64 {
	var sum float64
	n := 0
	for k, f := range s.fracs {
		end := s.start.Add(s.every * time.Duration(k+1))
		if end.After(from) && !end.After(to) {
			sum += f
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
