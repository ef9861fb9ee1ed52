package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a tail percentile resting on fewer samples is one or two
// outliers, not a property of the system.
const minBeyond = 10

// percentile is one order statistic of a sample, with the count it came
// from. OK is false when fewer than minBeyond samples lie beyond it.
type percentile struct {
	Q     float64
	Value float64
	N     int
	OK    bool
}

// String prints the percentile with its sample count, or says why it was
// withheld.
func (p percentile) String() string {
	if !p.OK {
		return fmt.Sprintf("p%g withheld (n=%d, needs >= %d beyond)", p.Q*100, p.N, minBeyond)
	}
	return fmt.Sprintf("p%g=%.4f (n=%d)", p.Q*100, p.Value, p.N)
}

// quantile returns the q-quantile of samples (linear interpolation between
// closest ranks). It sorts a copy.
func quantile(samples []float64, q float64) percentile {
	n := len(samples)
	p := percentile{Q: q, N: n}
	if n == 0 {
		return p
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	p.Value = s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	p.OK = float64(n)*(1-q) >= minBeyond-1e-9
	return p
}

// minSamples is the smallest sample count for which quantile(q) is not
// withheld.
func minSamples(q float64) int {
	return int(math.Ceil(minBeyond/(1-q) - 1e-9))
}

func median(v []float64) float64 { return quantile(v, 0.5).Value }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's reported metrics by name.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapSampler tracks the peak of the live Go heap — the bytes the
// collector found reachable, as of each collection — by polling
// runtime/metrics from its own goroutine. Live bytes, not heap objects
// in use, because the latter also count garbage awaiting collection,
// which swings with the collector's timing from run to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64 // written by the sampler goroutine until done closes
}

const heapMetric = "/gc/heap/live:bytes"

func readHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// startHeapSampler polls every interval until stop is called.
func startHeapSampler(interval time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: heapMetric}}
	h.peak = readHeap(s)
	go func() {
		defer close(h.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.peak = max(h.peak, readHeap(s))
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for its goroutine and returns the peak
// in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// runtimeCounters are the process-wide runtime/metrics the per-layer
// report differences across a phase.
type runtimeCounters struct {
	gcCPU, totalCPU float64 // seconds
	allocBytes      uint64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeCounters{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(),
	}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU, allocBytes: a.allocBytes - b.allocBytes}
}
