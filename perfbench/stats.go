package main

import (
	"math"
	"math/bits"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"
)

// minBeyond is how many samples must lie strictly beyond a reported
// percentile: a tail read off fewer samples is one outlier, not a tail.
const minBeyond = 10

// median returns the middle of xs (mean of the two middles for even n); 0
// for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rankOf is the nearest-rank index of percentile p (1..100) in n sorted
// samples.
func rankOf(p, n int) int {
	r := (p*n + 99) / 100 // ceil(p·n/100)
	if r < 1 {
		r = 1
	}
	return r - 1
}

// tailPercentile picks the highest integer percentile p ≤ 99 whose
// nearest-rank sample still has at least minBeyond samples beyond it in n
// samples. ok is false when not even the median qualifies (n < 2·minBeyond).
func tailPercentile(n int) (p int, ok bool) {
	for p = 99; p >= 50; p-- {
		if n-1-rankOf(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// quantile is one reported percentile with the sample count behind it.
type quantile struct {
	P     int     // percentile, 1..99
	N     int     // samples the value was read from
	Value float64 // the sample at nearest rank P
}

// percentileOf reads percentile p off xs by nearest rank.
func percentileOf(xs []float64, p int) quantile {
	if len(xs) == 0 {
		return quantile{P: p}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile{P: p, N: len(s), Value: s[rankOf(p, len(s))]}
}

// tailOf reads the reported tail of xs: the highest percentile with at least
// minBeyond samples beyond it. With too few samples it falls back to the
// maximum and says so through P = 100.
func tailOf(xs []float64) quantile {
	p, ok := tailPercentile(len(xs))
	if !ok {
		q := quantile{P: 100, N: len(xs)}
		for _, x := range xs {
			q.Value = math.Max(q.Value, x)
		}
		return q
	}
	return percentileOf(xs, p)
}

// nsHist is a log-linear histogram of nanosecond durations with 8 sub-
// buckets per power of two (≤12.5% relative error). It records millions of
// controller calls in constant memory; quantiles read the bucket midpoint.
type nsHist struct {
	counts [16 + 60*8]uint64
	n      uint64
}

func nsBucket(v uint64) int {
	if v < 16 {
		return int(v)
	}
	e := bits.Len64(v) - 4 // v>>e is in [8, 16)
	return 16 + (e-1)*8 + int(v>>uint(e)) - 8
}

// nsBucketMid returns the midpoint of bucket b.
func nsBucketMid(b int) float64 {
	if b < 16 {
		return float64(b)
	}
	e := (b-16)/8 + 1
	m := uint64((b-16)%8 + 8)
	lo := m << uint(e)
	return float64(lo) + float64(uint64(1)<<uint(e))/2
}

func (h *nsHist) add(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[nsBucket(v)]++
	h.n++
}

func (h *nsHist) merge(o *nsHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// percentile reads percentile p by nearest rank.
func (h *nsHist) percentile(p int) quantile {
	q := quantile{P: p, N: int(h.n)}
	if h.n == 0 {
		return q
	}
	want := uint64(rankOf(p, int(h.n))) + 1
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= want {
			q.Value = nsBucketMid(b)
			return q
		}
	}
	return q
}

// tail reads the histogram's reported tail (see tailOf).
func (h *nsHist) tail() quantile {
	p, ok := tailPercentile(int(h.n))
	if !ok {
		p = 100
		q := quantile{P: 100, N: int(h.n)}
		for b := len(h.counts) - 1; b >= 0; b-- {
			if h.counts[b] > 0 {
				q.Value = nsBucketMid(b)
				break
			}
		}
		return q
	}
	return h.percentile(p)
}

// heapPeak tracks the largest runtime HeapAlloc seen at sample points.
type heapPeak struct{ max uint64 }

func (h *heapPeak) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > h.max {
		h.max = ms.HeapAlloc
	}
}

func (h *heapPeak) mib() float64 { return float64(h.max) / (1 << 20) }

// heapWatchEvery is how often a heapWatch samples.
const heapWatchEvery = 2 * time.Millisecond

// heapWatch samples the bytes of live and not-yet-swept heap objects from a
// background goroutine and keeps the largest value. It reads runtime/metrics,
// which does not stop the world, so it can sample often enough to catch the
// peak between two collections.
type heapWatch struct {
	stop, done chan struct{}
	peak       heapPeak
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(heapWatchEvery)
		defer tick.Stop()
		for {
			rtmetrics.Read(sample)
			h.peak.max = max(h.peak.max, sample[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// end stops the watch, waits for its goroutine and returns the peak in MiB.
func (h *heapWatch) end() float64 {
	close(h.stop)
	<-h.done
	return h.peak.mib()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
