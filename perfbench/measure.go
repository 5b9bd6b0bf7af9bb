package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// minBeyond is the number of samples the reported tail percentile must
// keep beyond it; a percentile with fewer samples past it is one
// sample's noise.
const minBeyond = 10

// dist summarizes one timing distribution: the median and the highest
// percentile (at most the 99th) that keeps minBeyond samples beyond it.
type dist struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64
}

// tailPct returns the percentile reported as the tail of n samples: the
// 99th when n is large enough, else the highest tenth of a percent whose
// nearest-rank index leaves minBeyond samples above it. Below
// 2·minBeyond samples it falls back to the median.
func tailPct(n int) float64 {
	if n < 2*minBeyond {
		return 50
	}
	for p := 990; p > 500; p-- {
		if n-1-rankIndex(float64(p)/10, n) >= minBeyond {
			return float64(p) / 10
		}
	}
	return 50
}

// rankIndex is the nearest-rank index of percentile p in n sorted
// samples.
func rankIndex(p float64, n int) int {
	k := int(math.Ceil(p/100*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// summarize sorts a copy of xs and reports its median and tail.
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p := tailPct(len(s))
	return dist{
		N:       len(s),
		P50:     s[rankIndex(50, len(s))],
		Tail:    s[rankIndex(p, len(s))],
		TailPct: p,
	}
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so spreads printed here match the ones the acceptance rule uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median returns the middle of xs (the mean of the two middles for an
// even count).
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// tally is the closed-loop accounting of one class of operations. Every
// operation counts as attempted; one that errs, is refused or fails its
// output check also counts as failed and is recorded with an infinite
// latency, so it misses any latency limit and pushes the percentiles up
// instead of silently dropping out of them.
type tally struct {
	attempted int
	failed    int
	lat       []float64 // milliseconds
}

// ok records a successful operation that took ms milliseconds.
func (t *tally) ok(ms float64) {
	t.attempted++
	t.lat = append(t.lat, ms)
}

// fail records a failed or refused operation.
func (t *tally) fail() {
	t.attempted++
	t.failed++
	t.lat = append(t.lat, math.Inf(1))
}

// heapMetrics are the runtime/metrics samples whose sum is the Go
// heap's in-use bytes (MemStats.HeapInuse), read without stopping the
// world.
var heapMetrics = []string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
}

// heapSampler samples the in-use heap every few milliseconds on its own
// goroutine and keeps the peak of each heapWindow. Workloads report the
// median of the window peaks: the level the heap typically reaches
// between collections, which one transient spike or one late GC cycle
// cannot move the way it moves the single highest sample.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}

	samples []metrics.Sample
	opened  time.Time
	cur     uint64
	peaks   []float64 // MiB
}

// heapWindow is the length of one sampling window: 50 samples, and a
// few GC cycles of the sweep.
const heapWindow = 100 * time.Millisecond

// startHeapSampler starts sampling.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{}), opened: time.Now()}
	h.samples = make([]metrics.Sample, len(heapMetrics))
	for i, name := range heapMetrics {
		h.samples[i].Name = name
	}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			h.read()
			select {
			case <-h.stopc:
				h.peaks = append(h.peaks, float64(h.cur)/(1<<20))
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// read takes one sample, first closing the window when it is due.
func (h *heapSampler) read() {
	if time.Since(h.opened) >= heapWindow {
		h.peaks = append(h.peaks, float64(h.cur)/(1<<20))
		h.cur = 0
		h.opened = time.Now()
	}
	metrics.Read(h.samples)
	var sum uint64
	for _, s := range h.samples {
		if s.Value.Kind() == metrics.KindUint64 {
			sum += s.Value.Uint64()
		}
	}
	h.cur = max(h.cur, sum)
}

// stop ends sampling and returns the window peaks in MiB.
func (h *heapSampler) stop() []float64 {
	close(h.stopc)
	<-h.done
	return h.peaks
}

// memDelta is the allocation and GC activity between two MemStats
// reads.
type memDelta struct {
	AllocMB  float64
	GCCycles float64
}

// memMark returns the current MemStats.
func memMark() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// since returns the activity from before to now.
func since(before runtime.MemStats) memDelta {
	now := memMark()
	return memDelta{
		AllocMB:  float64(now.TotalAlloc-before.TotalAlloc) / (1 << 20),
		GCCycles: float64(now.NumGC - before.NumGC),
	}
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
