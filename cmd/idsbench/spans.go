package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed call the benchmark made into a layer. Spans of one
// op share Op; Parent is the enclosing span's ID (0 at the top). Lane
// is the client or worker that made the call, so concurrent ops land
// on separate timeline rows.
type span struct {
	ID, Parent, Op, Lane int
	Name                 string
	Start                time.Time
	Dur                  time.Duration
}

// tracer keeps spans in memory for the traced run and mirrors each into
// an obs.FlightRecorder, whose Chrome-trace writer gives the repo one
// trace format. A nil *tracer records nothing, so untraced code paths
// call it unconditionally.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	flight *obs.FlightRecorder
}

func newTracer() *tracer {
	return &tracer{flight: obs.NewFlightRecorder(obs.DefaultFlightCapacity)}
}

// do runs fn inside a span named name and returns fn's error. fn
// receives the span's ID to parent its own spans.
func (t *tracer) do(name string, parent, op, lane int, fn func(id int) error) error {
	if t == nil {
		return fn(0)
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Lane: lane, Name: name})
	t.mu.Unlock()
	start := time.Now()
	err := fn(id)
	dur := time.Since(start)
	t.mu.Lock()
	t.spans[id-1].Start, t.spans[id-1].Dur = start, dur
	t.mu.Unlock()
	t.flight.RecordSpan(obs.FlightMark, int32(lane), start, dur, -1, int64(op), name)
	return err
}

// selfTimes sums each span name's self time: its duration minus the
// time its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Name] += s.Dur
		if s.Parent > 0 {
			self[t.spans[s.Parent-1].Name] -= s.Dur
		}
	}
	return self
}

// durations returns the durations of every span named name, in seconds.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.Dur.Seconds())
		}
	}
	return out
}

// write saves the spans as a Chrome trace that Perfetto loads, to
// <trace-dir>/<workload>.trace.json, and logs each span name's self
// time, largest first.
func (t *tracer) write(p plan) error {
	if err := os.MkdirAll(p.TraceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(p.TraceDir, p.Workload+".trace.json")
	if err := t.flight.WriteChromeTraceFile(path); err != nil {
		return err
	}
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(os.Stderr, "idsbench: %s: spans by self time (trace %s)\n", p.Workload, path)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-24s %10.3fs\n", n, self[n].Seconds())
	}
	return nil
}
