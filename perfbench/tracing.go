package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call into a layer, recorded from the benchmark's side of
// the call. Parent is the span that caused it (0 for the phase root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerClock times every call the benchmark makes into a layer, traced or
// not, so per-call costs come from the untraced run too.
type layerClock struct {
	mu    sync.Mutex
	calls map[string]int64
	total map[string]time.Duration
}

func newLayerClock() *layerClock {
	return &layerClock{calls: map[string]int64{}, total: map[string]time.Duration{}}
}

func (c *layerClock) add(layer string, d time.Duration) {
	c.mu.Lock()
	c.calls[layer]++
	c.total[layer] += d
	c.mu.Unlock()
}

// perCall returns the call count and mean milliseconds per call.
func (c *layerClock) perCall(layer string) (int64, float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.calls[layer]
	return n, ratio(ms(c.total[layer]), float64(n))
}

// recorder is what workloads call layers through. With tracing on it
// keeps an in-memory span per call and runs the call under a pprof
// "layer" label, so the CPU profile can be split by layer as well as by
// package.
type recorder struct {
	clock  *layerClock
	traced bool
	origin time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder(traced bool) *recorder {
	return &recorder{clock: newLayerClock(), traced: traced, origin: time.Now()}
}

// root opens the phase's root span; its self time is the benchmark's own
// time between layer calls (the unattributed share).
func (r *recorder) root() (id int64, end func()) {
	if !r.traced {
		return 0, func() {}
	}
	id = r.nextID.Add(1)
	start := time.Now()
	return id, func() { r.record(id, 0, "root", start, time.Now()) }
}

// call runs fn as one call into layer, child of parent. fn receives the
// new span's ID so that work it causes (a server-side handler, say) can
// name it as parent.
func (r *recorder) call(layer string, parent int64, fn func(id int64) error) error {
	start := time.Now()
	var err error
	if !r.traced {
		err = fn(0)
		r.clock.add(layer, time.Since(start))
		return err
	}
	id := r.nextID.Add(1)
	pprof.Do(context.Background(), pprof.Labels("layer", layer), func(context.Context) {
		err = fn(id)
	})
	end := time.Now()
	r.record(id, parent, layer, start, end)
	r.clock.add(layer, end.Sub(start))
	return err
}

func (r *recorder) record(id, parent int64, name string, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.origin).Nanoseconds(), End: end.Sub(r.origin).Nanoseconds()})
	r.mu.Unlock()
}

// selfTimes returns each layer's self time — its spans' durations minus
// the part of each span covered by the union of its children — keyed by
// layer name; the root's self time is under "root".
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// strandTime is the summed wall time of the phase's concurrent strands
// of work: the root's duration plus the time by which its direct children
// overlap one another, that is, plus each moment's number of children
// running beyond the first. Self times sum to it when every span lies
// inside its parent and no span's children overlap below the root. On a
// serial phase it is the root's duration.
func strandTime(spans []span) int64 {
	var total int64
	for _, r := range spans {
		if r.Parent != 0 || r.Name != "root" {
			continue
		}
		var kids []span
		var sum int64
		for _, k := range spans {
			if k.Parent == r.ID {
				kids = append(kids, k)
				sum += max(0, min(k.End, r.End)-max(k.Start, r.Start))
			}
		}
		total += r.End - r.Start + sum - covered(r, kids)
	}
	return total
}

// covered is the length of the union of kids' intervals clipped to s.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// writeTrace writes the recorded spans as JSON and the CPU profile next
// to them, under dir, named after the workload and seed.
func writeTrace(dir, stem string, spans []span, profile []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, stem+".spans.json"), blob, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, stem+".cpu.pprof"), profile, 0o644)
}
