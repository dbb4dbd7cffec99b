package main

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"
)

// This file is the benchmark's own tracer. Spans are recorded by the
// benchmark around its calls into each layer's public functions; the
// program itself is not instrumented for it. Spans stay in memory and
// are written out once, when the run ends.

// span is one recorded layer call.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	TraceID string `json:"trace_id"`
	StartNS int64  `json:"start_ns"` // offset from the tracer's start
	EndNS   int64  `json:"end_ns"`
}

// tracer collects spans. A nil *tracer records nothing, so untraced runs
// pay one nil check per call site.
type tracer struct {
	start time.Time
	mu    sync.Mutex
	spans []span
	next  int
}

func newTracer(enabled bool) *tracer {
	if !enabled {
		return nil
	}
	return &tracer{start: time.Now()}
}

// active is an open span.
type active struct {
	t       *tracer
	name    string
	id      int
	parent  int
	traceID string
	start   time.Time
}

// newTraceID mints a 32-hex-digit trace ID for one request or pass.
func newTraceID() string {
	var b [16]byte
	_, _ = rand.Read(b[:]) // crypto/rand.Read never fails on Linux
	return hex.EncodeToString(b[:])
}

// begin opens a span named name under parent (nil for a root span with a
// fresh trace ID).
func (t *tracer) begin(name string, parent *active) *active {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	a := &active{t: t, name: name, id: id, start: time.Now()}
	if parent != nil {
		a.parent, a.traceID = parent.id, parent.traceID
	} else {
		a.traceID = newTraceID()
	}
	return a
}

// end closes the span and records it.
func (a *active) end() {
	if a == nil {
		return
	}
	now := time.Now()
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, span{
		Name: a.name, ID: a.id, Parent: a.parent, TraceID: a.traceID,
		StartNS: int64(a.start.Sub(a.t.start)), EndNS: int64(now.Sub(a.t.start)),
	})
	a.t.mu.Unlock()
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns each layer's self time in milliseconds: the summed
// duration of its spans minus the part of each span its child spans
// cover. Children of one parent never overlap (the benchmark records
// nested spans from one goroutine), so covered time is their sum.
func (t *tracer) selfTimes() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	childNS := map[int]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			childNS[s.Parent] += s.EndNS - s.StartNS
		}
	}
	for _, s := range t.spans {
		self := s.EndNS - s.StartNS - childNS[s.ID]
		out[layerOf(s.Name)] += float64(self) / 1e6
	}
	return out
}

// count returns how many spans were recorded.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// dump writes every span as JSON to dir/spans-<workload>-<seed>.json and
// returns the path.
func (t *tracer) dump(dir, workload string, seed int64) (string, error) {
	if t == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", workload, seed))
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// addSelfTimes reports each layer's self time as <layer>.self_ms.
func addSelfTimes(rep *report, tr *tracer, layers ...string) {
	self := tr.selfTimes()
	for _, l := range layers {
		rep.layers[l+".self_ms"] = metric{self[l], "ms"}
	}
	rep.layers["trace.spans"] = metric{float64(tr.count()), "count"}
}

// memSample is a reading of the Go runtime's allocation and GC counters.
type memSample struct {
	allocBytes, allocs, gcCycles uint64
	pauseNS                      float64
}

var memMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readMem() memSample {
	ms := make([]metrics.Sample, len(memMetricNames))
	for i, n := range memMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s := memSample{
		allocBytes: ms[0].Value.Uint64(),
		allocs:     ms[1].Value.Uint64(),
		gcCycles:   ms[2].Value.Uint64(),
	}
	if ms[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := ms[3].Value.Float64Histogram()
		for i, c := range h.Counts {
			// Bucket i spans [Buckets[i], Buckets[i+1]); take its lower
			// edge, or the upper one for the open first bucket.
			lo := h.Buckets[i]
			if math.IsInf(lo, -1) {
				lo = h.Buckets[i+1]
			}
			s.pauseNS += float64(c) * lo * 1e9
		}
	}
	return s
}

// addRuntime reports the allocation and GC work between two readings.
func addRuntime(rep *report, before, after memSample) {
	rep.layers["runtime.alloc_mb"] = metric{float64(after.allocBytes-before.allocBytes) / (1 << 20), "MB"}
	rep.layers["runtime.allocs"] = metric{float64(after.allocs - before.allocs), "count"}
	rep.layers["runtime.gc_cycles"] = metric{float64(after.gcCycles - before.gcCycles), "count"}
	rep.layers["runtime.gc_pause_ms"] = metric{(after.pauseNS - before.pauseNS) / 1e6, "ms"}
}

// heapPeak samples the live heap every few milliseconds until stop is
// closed and returns the highest reading in MB.
type heapPeak struct {
	stop chan struct{}
	done chan float64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				h.done <- float64(peak) / (1 << 20)
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak heap in MB.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	return <-h.done
}

// settle runs a full GC so a phase starts from a comparable heap.
func settle() { runtime.GC() }
