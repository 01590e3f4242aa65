// Package obs is the testbed's simulation-aware telemetry subsystem: a
// metrics registry of counters, gauges, and fixed-bucket histograms,
// plus lightweight span tracing for pipeline stages.
//
// Two properties shape the design:
//
//   - Telemetry observes, it never perturbs. No instrument touches a
//     random stream, schedules an event, or changes control flow, so a
//     simulation produces bit-identical results with instrumentation
//     wired in or absent (the determinism guard test pins this).
//
//   - The disabled path is free. Every instrument method is defined on
//     a possibly-nil receiver and returns immediately when nil, so
//     uninstrumented components pay one predictable branch — a few
//     nanoseconds and zero allocations, pinned by benchmark — instead
//     of a registry lookup or an interface call.
//
// Quantities carry an explicit clock: sim-time for anything the virtual
// clock produces (detection latency, queue wait) and wall-time for real
// costs of the harness itself (decode throughput, scan ns/op). The
// clock is declared when the instrument is registered and travels with
// every export so a dashboard can never confuse the two.
//
// Instruments are registered once at wiring time and the returned
// pointer is kept by the instrumented component; the hot path is then a
// single atomic operation with no map lookups and no locks. All
// instruments are safe for concurrent use — the parallel evaluation
// pipeline shares registries across par workers.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Clock declares which timeline a measured quantity lives on.
type Clock uint8

// Clock kinds.
const (
	// ClockWall marks real elapsed time of the harness (decode
	// throughput, scan ns/op, stage timings).
	ClockWall Clock = iota
	// ClockSim marks virtual simulation time (detection latency, queue
	// wait, induced path latency).
	ClockSim
	// ClockNone marks dimensionless quantities (counts, bytes, depths).
	ClockNone
)

// String names the clock for exports.
func (c Clock) String() string {
	switch c {
	case ClockSim:
		return "sim"
	case ClockWall:
		return "wall"
	default:
		return "none"
	}
}

// Counter is a monotonically increasing uint64. A nil *Counter is a
// valid no-op instrument.
type Counter struct {
	v    atomic.Uint64
	name string
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the registered name ("" for nil).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Gauge is an instantaneous signed value (queue depth, buffered bytes).
// A nil *Gauge is a valid no-op instrument.
type Gauge struct {
	v    atomic.Int64
	hi   atomic.Int64 // high-water mark
	name string
}

// Set stores v and updates the high-water mark.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	atomicMax(&g.hi, v)
}

// Update adds d to the gauge and updates the high-water mark. No command
// calls it: it is the instrument of the gated BenchmarkGaugeUpdate pair.
func (g *Gauge) Update(d int64) {
	if g == nil {
		return
	}
	atomicMax(&g.hi, g.v.Add(d))
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// High returns the high-water mark (0 for nil).
func (g *Gauge) High() int64 {
	if g == nil {
		return 0
	}
	return g.hi.Load()
}

// atomicMax raises *a to v if v is larger.
func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// atomicMin lowers *a to v if v is smaller.
func atomicMin(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v >= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Registry holds a set of named instruments and a span log. A nil
// *Registry is the disabled telemetry configuration: every lookup
// returns a nil instrument and every span is a no-op.
//
// Names are dot-separated paths (see DESIGN.md §9 for the scheme);
// duration-valued histograms record nanoseconds and end in "_ns".
// Registering the same name twice returns the same instrument, so
// wiring helpers are idempotent.
//
// A Registry is either a root, which owns the instruments, or a prefix
// view made by Sub, which owns nothing: everything registered through
// a view lives in its root under the view's prefix. A process keeps one
// root, and each run writes into it through its own view.
type Registry struct {
	root   *Registry // the registry a view writes into; nil on a root
	prefix string    // a view's name prefix, already joined with its parents'

	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	hists     map[string]*Histogram
	adopted   map[string]*HistSnap // finished histograms handed over by AdoptHist
	spans     []SpanRecord
	spanEpoch time.Time
	flight    *FlightRecorder
}

// NewRegistry creates an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Sub returns a view of r whose instruments, spans and flight recorder
// live in r's root under prefix+name. A view of a view joins the
// prefixes, so reg.Sub("a.").Sub("b.").Counter("n") is the root's
// "a.b.n". Sub on a nil registry is nil, so a disabled configuration
// stays disabled all the way down.
func (r *Registry) Sub(prefix string) *Registry {
	if r == nil {
		return nil
	}
	root, prefix := r.resolve(prefix)
	return &Registry{root: root, prefix: prefix}
}

// resolve maps a name registered through r to the registry that owns it
// and the name it has there.
func (r *Registry) resolve(name string) (*Registry, string) {
	if r.root == nil {
		return r, name
	}
	return r.root, r.prefix + name
}

// Counter returns the named counter, creating it on first use. Returns
// nil (the no-op instrument) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r, name = r.resolve(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r, name = r.resolve(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram with the default duration
// ladder, creating it on first use. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, clock Clock) *Histogram {
	return r.HistogramWithBounds(name, clock, nil)
}

// HistogramWithBounds is Histogram with explicit bucket upper bounds
// (nil means the default duration ladder). Bounds must be ascending.
// The bounds of an already-registered name win; the argument is ignored.
func (r *Registry) HistogramWithBounds(name string, clock Clock, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r, name = r.resolve(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(name, clock, bounds)
		r.hists[name] = h
	}
	return h
}

// AdoptHist files a finished histogram summary under the registry's
// name for it (prefix+s.Name on a view), replacing any summary adopted
// under that name before. It serves measurements that always collect
// into a standalone histogram, whether or not a registry is wired, and
// publish the result once they end. No-op on a nil registry or a nil s.
func (r *Registry) AdoptHist(s *HistSnap) {
	if r == nil || s == nil {
		return
	}
	c := *s
	r, c.Name = r.resolve(c.Name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.adopted == nil {
		r.adopted = make(map[string]*HistSnap)
	}
	r.adopted[c.Name] = &c
}

// EnableFlight attaches a flight recorder holding the last cap events
// (cap <= 0 selects DefaultFlightCapacity) and returns it. Idempotent:
// a recorder already attached is returned unchanged, so wiring helpers
// can call it freely. Returns nil on a nil registry — the disabled
// configuration stays fully disabled.
func (r *Registry) EnableFlight(cap int) *FlightRecorder {
	if r == nil {
		return nil
	}
	r, _ = r.resolve("")
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.flight == nil {
		r.flight = NewFlightRecorder(cap)
	}
	return r.flight
}

// Flight returns the attached flight recorder, or nil when none was
// enabled (and on a nil registry). A view returns its root's recorder,
// so every run of a process lands on one timeline. The nil result is
// itself a valid no-op recorder, so callers thread it without checks.
func (r *Registry) Flight() *FlightRecorder {
	if r == nil {
		return nil
	}
	r, _ = r.resolve("")
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.flight
}

// sortedKeys returns the map keys that start with prefix, in sorted
// order, so snapshots and exports are deterministic regardless of
// registration order.
func sortedKeys[V any](m map[string]V, prefix string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// String summarizes the registry (a view's root) for diagnostics.
func (r *Registry) String() string {
	if r == nil {
		return "obs.Registry(disabled)"
	}
	r, _ = r.resolve("")
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprintf("obs.Registry(%d counters, %d gauges, %d histograms, %d spans)",
		len(r.counters), len(r.gauges), len(r.hists), len(r.spans))
}
