package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/fsio"
)

// FlightKind classifies a flight-recorder event. Kinds cover the coarse
// lifecycle milestones of a run — the things an operator staring at a
// wedged multi-hour campaign needs on a timeline — not per-packet
// detail (that is what metrics and spans are for).
type FlightKind uint8

// Flight-recorder event kinds.
const (
	// FlightExperimentStart marks a campaign experiment attempt starting
	// (Name = experiment ID, Arg = attempt number).
	FlightExperimentStart FlightKind = iota + 1
	// FlightExperimentDone marks a committed experiment (Dur = attempt
	// wall time, Arg = attempt number).
	FlightExperimentDone
	// FlightExperimentRetry marks a failed attempt that will be retried
	// (Arg = attempt number that failed).
	FlightExperimentRetry
	// FlightExperimentPanic marks a recovered experiment panic.
	FlightExperimentPanic
	// FlightWindow is one shard domain executing one lookahead window
	// (Dom = domain, Dur = wall execution time, Sim = window start,
	// Arg = events executed).
	FlightWindow
	// FlightBarrierWait is the wall time a domain idled at the window
	// barrier waiting for the slowest domain (Dom = domain, Dur = stall).
	FlightBarrierWait
	// FlightFaultInject marks a fault-scenario onset firing in the
	// simulation (Name = "kind:target", Sim = injection time).
	FlightFaultInject
	// FlightMark is a free-form milestone (phase changes, shutdown).
	FlightMark
)

// String names the kind for exports.
func (k FlightKind) String() string {
	switch k {
	case FlightExperimentStart:
		return "experiment_start"
	case FlightExperimentDone:
		return "experiment_done"
	case FlightExperimentRetry:
		return "experiment_retry"
	case FlightExperimentPanic:
		return "experiment_panic"
	case FlightWindow:
		return "window"
	case FlightBarrierWait:
		return "barrier_wait"
	case FlightFaultInject:
		return "fault_inject"
	case FlightMark:
		return "mark"
	default:
		return "unknown"
	}
}

// FlightEvent is one recorded milestone. Wall is the offset from the
// recorder's epoch (its creation); Dur is zero for instantaneous
// events. Sim carries the simulation-clock time where one exists
// (window starts, fault onsets) and -1 where none does.
type FlightEvent struct {
	Seq  uint64        `json:"seq"`
	Kind FlightKind    `json:"kind"`
	Wall time.Duration `json:"wall_ns"`
	Dur  time.Duration `json:"dur_ns"`
	Sim  int64         `json:"sim_ns"`
	Dom  int32         `json:"dom"`
	Arg  int64         `json:"arg"`
	Name string        `json:"name,omitempty"`
}

// FlightRecorder is a bounded ring buffer of typed events: a sim-time
// flight recorder for long runs. When the ring fills, the oldest events
// are overwritten — the recorder always holds the most recent window of
// activity, which is exactly what a post-mortem of a stall needs.
//
// The same two properties that shape the metrics registry hold here:
// a nil *FlightRecorder is the disabled configuration and every method
// on it is a free no-op (pinned at 0 allocs/op by benchmark), and
// recording never perturbs — no event touches simulation state or a
// random stream, so runs are byte-identical with the recorder on or
// off. Record is safe for concurrent use (shard executors and campaign
// workers share one recorder).
type FlightRecorder struct {
	mu      sync.Mutex
	epoch   time.Time
	buf     []FlightEvent // ring, preallocated at construction
	next    uint64        // total events ever recorded
	dropped uint64        // events overwritten after the ring filled
}

// DefaultFlightCapacity bounds the ring when callers pass cap <= 0:
// 64Ki events ≈ 6 MB — hours of campaign milestones, or the most
// recent tens of thousands of shard windows.
const DefaultFlightCapacity = 1 << 16

// NewFlightRecorder creates a recorder holding the last cap events
// (cap <= 0 selects DefaultFlightCapacity). The ring is allocated up
// front so Record never allocates.
func NewFlightRecorder(cap int) *FlightRecorder {
	if cap <= 0 {
		cap = DefaultFlightCapacity
	}
	return &FlightRecorder{
		epoch: time.Now(),
		buf:   make([]FlightEvent, cap),
	}
}

// Record appends an instantaneous event. No-op on nil.
func (f *FlightRecorder) Record(kind FlightKind, dom int32, sim int64, arg int64, name string) {
	if f == nil {
		return
	}
	f.record(kind, time.Since(f.epoch), 0, sim, dom, arg, name)
}

// RecordSpan appends an event with wall extent [start, start+dur),
// where start is an absolute wall-clock time (as from time.Now at the
// span's beginning). No-op on nil.
func (f *FlightRecorder) RecordSpan(kind FlightKind, dom int32, start time.Time, dur time.Duration, sim int64, arg int64, name string) {
	if f == nil {
		return
	}
	f.record(kind, start.Sub(f.epoch), dur, sim, dom, arg, name)
}

func (f *FlightRecorder) record(kind FlightKind, wall, dur time.Duration, sim int64, dom int32, arg int64, name string) {
	f.mu.Lock()
	slot := &f.buf[f.next%uint64(len(f.buf))]
	if f.next >= uint64(len(f.buf)) {
		f.dropped++
	}
	slot.Seq = f.next
	slot.Kind = kind
	slot.Wall = wall
	slot.Dur = dur
	slot.Sim = sim
	slot.Dom = dom
	slot.Arg = arg
	slot.Name = name
	f.next++
	f.mu.Unlock()
}

// Len returns how many events the ring currently holds (0 for nil).
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.next < uint64(len(f.buf)) {
		return int(f.next)
	}
	return len(f.buf)
}

// Recorded returns the total number of events ever recorded, including
// ones the ring has since overwritten (0 for nil). Only tests read it;
// eval's telemetry tests use it to check the recorder was fed.
func (f *FlightRecorder) Recorded() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next
}

// Dropped returns how many events were overwritten after the ring
// filled (0 for nil). Only tests read it; the simtime tests use it to
// tell a full ring from a missing event.
func (f *FlightRecorder) Dropped() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

// Events returns the retained events oldest-first. Nil recorders have
// none.
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.next
	cap := uint64(len(f.buf))
	out := make([]FlightEvent, 0, min64(n, cap))
	start := uint64(0)
	if n > cap {
		start = n - cap
	}
	for i := start; i < n; i++ {
		out = append(out, f.buf[i%cap])
	}
	return out
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// chromeEvent is one Chrome trace_event object. Timestamps and
// durations are microseconds (floats), per the trace-event format that
// Perfetto and chrome://tracing ingest.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// flightTid maps a domain to a trace thread id: domain i becomes tid
// i+1, and harness-level events (Dom < 0) land on tid 0.
func flightTid(dom int32) int {
	if dom < 0 {
		return 0
	}
	return int(dom) + 1
}

// WriteChromeTrace renders the retained events as Chrome trace_event
// JSON (the format Perfetto's UI loads directly). Each shard domain
// becomes one named thread; windows and barrier waits render as
// duration slices, instantaneous milestones as instant events, so a
// sharded run's execution overlap and barrier stalls read straight off
// the timeline. Writes an empty-but-valid trace for a nil recorder.
func (f *FlightRecorder) WriteChromeTrace(w io.Writer) error {
	events := f.Events()
	var out struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}
	out.DisplayTimeUnit = "ms"

	// Thread-name metadata: tid 0 is the harness (campaign runner, fault
	// injector); shard domains take their domain number.
	tids := map[int]string{}
	for _, e := range events {
		t := flightTid(e.Dom)
		if _, ok := tids[t]; ok {
			continue
		}
		if e.Dom < 0 {
			tids[t] = "harness"
		} else {
			tids[t] = fmt.Sprintf("domain %d", e.Dom)
		}
	}
	// Deterministic metadata order: ascending tid.
	for t := 0; t < len(tids)+64; t++ {
		name, ok := tids[t]
		if !ok {
			continue
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: t,
			Args: map[string]any{"name": name},
		})
	}

	for _, e := range events {
		ce := chromeEvent{
			Cat: e.Kind.String(),
			Ts:  float64(e.Wall.Nanoseconds()) / 1e3,
			Pid: 1,
			Tid: flightTid(e.Dom),
			Args: map[string]any{
				"seq": e.Seq,
				"arg": e.Arg,
			},
		}
		if e.Sim >= 0 {
			ce.Args["sim_us"] = float64(e.Sim) / 1e3
		}
		ce.Name = e.Kind.String()
		if e.Name != "" {
			ce.Name = e.Name
		}
		if e.Dur > 0 {
			ce.Ph = "X"
			ce.Dur = float64(e.Dur.Nanoseconds()) / 1e3
		} else {
			ce.Ph = "i"
			// Instant scope: thread.
			ce.Args["s"] = "t"
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}

// WriteChromeTraceFile writes the Chrome trace atomically to path, with
// the same crash guarantees as the snapshot exporters.
func (f *FlightRecorder) WriteChromeTraceFile(path string) error {
	return fsio.WriteAtomic(path, f.WriteChromeTrace)
}
