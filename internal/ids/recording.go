package ids

import (
	"sort"
	"time"

	"repro/internal/packet"
)

// SessionRecording is the captured traffic of one alerting flow — the
// Session Recording and Playback capability of Table 3's untabled
// performance metrics. Recording starts when a flow first raises an
// alert and is bounded by a byte budget.
type SessionRecording struct {
	Flow packet.FlowKey
	// Packets in capture order (clones; safe to hold).
	Packets []*packet.Packet
	// Bytes captured so far.
	Bytes int
	// Truncated marks recordings that hit the budget.
	Truncated bool
	// Started is the virtual time recording was armed.
	Started time.Duration
}

// sessionRecorder captures packets of flows that have alerted.
type sessionRecorder struct {
	armed map[packet.FlowKey]*SessionRecording
	// budgetBytes bounds each recording.
	budgetBytes int
	// maxSessions bounds concurrent recordings.
	maxSessions int
}

func newSessionRecorder(budgetBytes, maxSessions int) *sessionRecorder {
	if budgetBytes <= 0 {
		budgetBytes = 64 << 10
	}
	if maxSessions <= 0 {
		maxSessions = 256
	}
	return &sessionRecorder{
		armed:       make(map[packet.FlowKey]*SessionRecording),
		budgetBytes: budgetBytes,
		maxSessions: maxSessions,
	}
}

// arm starts recording a flow (both directions via canonical key).
func (r *sessionRecorder) arm(flow packet.FlowKey, now time.Duration) {
	k := flow.Canonical()
	if _, ok := r.armed[k]; ok || len(r.armed) >= r.maxSessions {
		return
	}
	r.armed[k] = &SessionRecording{Flow: k, Started: now}
}

// observe captures one packet if its flow is armed.
func (r *sessionRecorder) observe(p *packet.Packet) {
	rec, ok := r.armed[p.Key().Canonical()]
	if !ok || rec.Truncated {
		return
	}
	if rec.Bytes+p.WireLen() > r.budgetBytes {
		rec.Truncated = true
		return
	}
	rec.Packets = append(rec.Packets, p.Clone())
	rec.Bytes += p.WireLen()
}

// Recordings returns all session recordings sorted by start time. No
// command reads recordings: session recording is the extension
// EXPERIMENTS.md describes, pinned by
// TestSessionRecordingCapturesAlertingFlow.
func (s *IDS) Recordings() []*SessionRecording {
	if s.recorder == nil {
		return nil
	}
	out := make([]*SessionRecording, 0, len(s.recorder.armed))
	for _, rec := range s.recorder.armed {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Started != out[j].Started {
			return out[i].Started < out[j].Started
		}
		return out[i].Flow.String() < out[j].Flow.String()
	})
	return out
}

// Playback returns the recording for a flow (either direction), or nil.
func (s *IDS) Playback(flow packet.FlowKey) *SessionRecording {
	if s.recorder == nil {
		return nil
	}
	return s.recorder.armed[flow.Canonical()]
}

// TrendBucket aggregates incident counts per technique over one time
// bucket — the Trend Analysis capability.
type TrendBucket struct {
	Start  time.Duration
	Counts map[string]int
}

// Trend buckets the monitor's incidents by first-alert time. Empty
// buckets between active ones are included so series plot evenly. No
// command renders trends: it is the trend-analysis extension
// EXPERIMENTS.md describes, pinned by TestTrendBucketsIncidents.
func (m *Monitor) Trend(bucket time.Duration) []TrendBucket {
	if bucket <= 0 || len(m.Incidents) == 0 {
		return nil
	}
	var maxT time.Duration
	minT := m.Incidents[0].FirstAlert
	for _, inc := range m.Incidents {
		if inc.FirstAlert < minT {
			minT = inc.FirstAlert
		}
		if inc.FirstAlert > maxT {
			maxT = inc.FirstAlert
		}
	}
	first := minT / bucket
	last := maxT / bucket
	out := make([]TrendBucket, 0, last-first+1)
	for b := first; b <= last; b++ {
		out = append(out, TrendBucket{Start: b * bucket, Counts: make(map[string]int)})
	}
	for _, inc := range m.Incidents {
		idx := inc.FirstAlert/bucket - first
		out[idx].Counts[inc.Technique]++
	}
	return out
}

// SelfEvent records the IDS reporting on its own health (sensor failure
// or recovery) — the reporting half of the Error Reporting and Recovery
// metric.
type SelfEvent struct {
	At       time.Duration
	SensorID int
	// Recovered is false for a failure event, true for a restart.
	Recovered bool
}

// noteSensorEvent records a health event and, when a console exists
// (watchdog path), notifies the operator through the normal monitor
// channel as the metric's high anchor requires ("failure is reported
// near real time via attack notification channels").
func (s *IDS) noteSensorEvent(sensorID int, recovered bool) {
	now := s.sim.Now()
	s.selfEvents = append(s.selfEvents, SelfEvent{At: now, SensorID: sensorID, Recovered: recovered})
	if s.console == nil || recovered {
		return
	}
	inc := &ReportedIncident{
		Technique:  "ids-sensor-failure",
		Severity:   1,
		FirstAlert: now, LastAlert: now, ReportedAt: now,
		AlertCount: 1, Engines: []string{"watchdog"},
	}
	s.monitor.Report(inc)
}
