package obs

import (
	"time"
)

// SpanRecord is one finished pipeline-stage span. Start is an offset
// from the registry's first span, so a log of spans reads as a relative
// timeline without embedding absolute timestamps.
type SpanRecord struct {
	Name  string        `json:"name"`
	Clock Clock         `json:"clock"`
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
}

// Span is an in-progress wall-clock stage measurement. It is a value
// type: starting and ending a span allocates nothing beyond the
// registry's finished-record append. The zero Span (from a nil
// registry) is a valid no-op.
type Span struct {
	reg   *Registry
	name  string
	start time.Time
}

// StartSpan begins a wall-clock span. On a nil registry it returns the
// zero Span without touching the clock, so uninstrumented stage
// boundaries cost two nil checks and nothing else.
func (r *Registry) StartSpan(name string) Span {
	if r == nil {
		return Span{}
	}
	return Span{reg: r, name: name, start: time.Now()}
}

// End finishes the span, records it, and returns its duration (zero
// for the no-op span of a nil registry).
func (s Span) End() time.Duration {
	if s.reg == nil {
		return 0
	}
	d := time.Since(s.start)
	s.reg.recordSpan(s.name, ClockWall, s.start, d)
	return d
}

// recordSpan appends a finished wall span, rebasing its start onto the
// registry's span epoch (the start of the earliest recorded span).
func (r *Registry) recordSpan(name string, clock Clock, start time.Time, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.spanEpoch.IsZero() || start.Before(r.spanEpoch) {
		r.spanEpoch = start
	}
	r.spans = append(r.spans, SpanRecord{
		Name: name, Clock: clock, Start: start.Sub(r.spanEpoch), Dur: d,
	})
}

// SpanDur returns the summed duration of all finished spans with the
// given name, and whether any were recorded.
func (r *Registry) SpanDur(name string) (time.Duration, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var total time.Duration
	found := false
	for _, s := range r.spans {
		if s.Name == name {
			total += s.Dur
			found = true
		}
	}
	return total, found
}
