package main

import (
	"math"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// operation (a cell sweep, a job, a case) share Op; Parent names the
// enclosing span (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; the run writes them out at the end. A
// nil tracer records nothing, so untraced passes pay one nil check per
// call site.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	nextOp atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp allocates an operation id.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.nextOp.Add(1)
}

// openSpan is an unfinished span.
type openSpan struct {
	t *tracer
	s span
}

// begin opens a span; call end on the result.
func (t *tracer) begin(name string, parent openSpan, op int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, s: span{
		ID: t.nextID.Add(1), Parent: parent.s.ID, Op: op, Name: name, Start: int64(time.Since(t.t0)),
	}}
}

func (o openSpan) end() {
	if o.t == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// medians returns each span name's median duration in milliseconds.
func (t *tracer) medians() map[string]float64 {
	byName := map[string][]float64{}
	for _, s := range t.spans {
		byName[s.Name] = append(byName[s.Name], float64(s.End-s.Start)/1e6)
	}
	out := map[string]float64{}
	for n, d := range byName {
		out[n] = median(d)
	}
	return out
}

// runtimeSnap is a reading of the Go runtime's own accounting.
type runtimeSnap struct {
	gcCPU, allocBytes, allocObjects float64
	sched                           *metrics.Float64Histogram
	sys                             time.Duration
}

// runtimeDelta is what the runtime spent between two readings.
type runtimeDelta struct {
	gcCPUs, allocMB, allocObjects, sysS, schedP90us float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/sched/latencies:seconds"},
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	snap := runtimeSnap{sys: time.Duration(ru.Stime.Nano())}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		snap.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		snap.allocBytes = float64(s[1].Value.Uint64())
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		snap.allocObjects = float64(s[2].Value.Uint64())
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[3].Value.Float64Histogram()
		snap.sched = &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
	}
	return snap
}

func (s runtimeSnap) since(base runtimeSnap) runtimeDelta {
	d := runtimeDelta{
		gcCPUs:       s.gcCPU - base.gcCPU,
		allocMB:      (s.allocBytes - base.allocBytes) / (1 << 20),
		allocObjects: s.allocObjects - base.allocObjects,
		sysS:         (s.sys - base.sys).Seconds(),
	}
	if s.sched != nil && base.sched != nil && len(s.sched.Counts) == len(base.sched.Counts) {
		counts := make([]uint64, len(s.sched.Counts))
		var total uint64
		for i := range counts {
			counts[i] = s.sched.Counts[i] - base.sched.Counts[i]
			total += counts[i]
		}
		// The p90 is the upper bound of the bucket holding the 90th
		// percentile sample.
		var seen uint64
		for i, c := range counts {
			seen += c
			if total > 0 && float64(seen) >= 0.9*float64(total) {
				// The last bucket is unbounded above.
				b := s.sched.Buckets[i+1]
				if math.IsInf(b, 1) {
					b = s.sched.Buckets[i]
				}
				d.schedP90us = b * 1e6
				break
			}
		}
	}
	return d
}
