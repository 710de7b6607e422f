package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// allocCounter reads the process-wide allocation counters without
// stopping the world, so it can bracket every operation.
type allocCounter struct{ s []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}}
}

func (a *allocCounter) read() (objects, bytes uint64) {
	metrics.Read(a.s)
	return a.s[0].Value.Uint64(), a.s[1].Value.Uint64()
}

// cost is what one operation took: host time and heap allocation.
type cost struct {
	ns            int64
	allocs, bytes uint64
}

// measure runs fn and returns its cost. Only fn is inside the bracket;
// output checks run after it, untimed.
func (a *allocCounter) measure(fn func() error) (cost, error) {
	o0, b0 := a.read()
	t0 := time.Now()
	err := fn()
	ns := int64(time.Since(t0))
	o1, b1 := a.read()
	return cost{ns: ns, allocs: o1 - o0, bytes: b1 - b0}, err
}

// gcCounters is the GC cycle count and total pause time so far.
func gcCounters() (cycles uint32, pauseNs uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC, ms.PauseTotalNs
}

// liveHeapWatch records the live heap each garbage collection found while
// it runs. Which moment of an operation a collection lands on depends on
// timing, so the largest of these values swings from run to run; a high
// percentile of them is steady. The heap's reserved size would follow host
// load too, because it depends on when the collector got CPU time.
type liveHeapWatch struct {
	stop, done chan struct{}
	lives      []float64 // written by the sampler; read after done closes
}

// watchLiveHeap starts polling the collector's cycle count every
// millisecond, far more often than it completes a cycle, and records
// /gc/heap/live:bytes whenever the count moves.
func watchLiveHeap() *liveHeapWatch {
	w := &liveHeapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	last := s[0].Value.Uint64()
	go func() {
		defer close(w.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
			metrics.Read(s)
			if c := s[0].Value.Uint64(); c != last {
				last = c
				w.lives = append(w.lives, float64(s[1].Value.Uint64()))
			}
		}
	}()
	return w
}

// finish stops the sampler, waits for it, and returns the live heap of
// every collection it saw.
func (w *liveHeapWatch) finish() []float64 {
	close(w.stop)
	<-w.done
	return w.lives
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-th percentile (0 < q <= 100).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Ceil(q/100*float64(len(s))))-1]
}

// tailPercentile picks the highest percentile that still has at least
// minBeyond samples above it: the value at ascending rank n-minBeyond. It
// returns the value, the percentile (share of samples at or below it, in
// percent) and the number of samples beyond it. With minBeyond or fewer
// samples no percentile qualifies, and the smallest sample is returned
// with every other sample beyond it.
func tailPercentile(xs []float64, minBeyond int) (value, pct float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	idx := n - 1 - minBeyond
	if idx < 0 {
		idx = 0
	}
	return s[idx], 100 * float64(idx+1) / float64(n), n - 1 - idx
}
