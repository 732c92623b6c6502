package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// The reported tail is the highest percentile with at least ten samples
// beyond it, and carries its sample count.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n, p int
		ok   bool
	}{
		{1000, 99, true},
		{999, 98, true},
		{2000, 99, true},
		{500, 98, true},
		{100, 90, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", c.n, p, ok, c.p, c.ok)
			continue
		}
		if ok && c.n-1-rankOf(p, c.n) < minBeyond {
			t.Errorf("n=%d p%d has %d samples beyond", c.n, p, c.n-1-rankOf(p, c.n))
		}
		if ok && p < 99 && c.n-1-rankOf(p+1, c.n) >= minBeyond {
			t.Errorf("n=%d: p%d also qualifies", c.n, p+1)
		}
	}
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..500
	}
	q := tailOf(xs)
	if q.P != 98 || q.N != 500 || q.Value != 490 {
		t.Errorf("tailOf(1..500) = %+v, want p98 of 500 = 490", q)
	}
	if beyond := 500 - int(q.Value); beyond < minBeyond {
		t.Errorf("%d samples beyond the reported tail", beyond)
	}
	if q := tailOf(xs[:12]); q.P != 100 || q.Value != 12 {
		t.Errorf("tailOf(12 samples) = %+v, want the maximum flagged p100", q)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if q := percentileOf([]float64{5, 1, 4, 2, 3}, 50); q.Value != 3 || q.N != 5 {
		t.Errorf("p50 = %+v", q)
	}
}

func TestNsHistQuantiles(t *testing.T) {
	var h nsHist
	for i := 1; i <= 10000; i++ {
		h.add(time.Duration(i))
	}
	for _, c := range []struct {
		p    int
		want float64
	}{{50, 5000}, {99, 9900}} {
		got := h.percentile(c.p).Value
		if math.Abs(got-c.want)/c.want > 0.125 {
			t.Errorf("p%d = %v, want %v within 12.5%%", c.p, got, c.want)
		}
	}
	if q := h.tail(); q.P != 99 || q.N != 10000 {
		t.Errorf("tail = %+v, want p99 of 10000", q)
	}
	for v := uint64(0); v < 1<<20; v = v*9/8 + 1 {
		b := nsBucket(v)
		if mid := nsBucketMid(b); v >= 16 && math.Abs(mid-float64(v))/float64(v) > 0.125 {
			t.Errorf("value %d bucket %d midpoint %v", v, b, mid)
		}
	}
}

// BENCHMARK.json at the checkout root must list exactly the metrics the
// command prints, with the same units.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var file struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, command %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd)
	check("per_layer", file.PerLayer, perLayer)
	for _, w := range file.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a command workload", w.Name)
		}
	}
	if len(file.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(file.Workloads), len(workloads))
	}
}
