// Package faults is the deterministic fault-injection harness: declarative
// scenarios of component and network failures, scheduled on the simtime
// kernel and applied to a running evaluation without the instrumented
// components knowing they are under test. The paper's architectural
// (class 2) metrics — resistance to attack upon self, fail-open versus
// fail-closed, graceful degradation — describe how an IDS behaves when
// its own parts fail; this package makes those stress conditions
// explicit, repeatable, and severity-scalable, so defensive-capability
// scores are comparable across products instead of anecdotal.
//
// Determinism contract: a scenario carries no randomness. Every event is
// a fixed (offset, duration, kind, target, severity) tuple; the injector
// schedules plain simtime events, so identical seed + scenario yields a
// byte-identical run, and an empty scenario yields a run byte-identical
// to one without the harness.
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// Fault kinds. Continuous kinds scale magnitude with severity; windowed
// kinds scale their active duration, so a severity sweep traces a
// monotone degradation curve either way.
const (
	// KindLinkDegrade derates a link's bandwidth for the event window.
	KindLinkDegrade = "link-degrade"
	// KindLinkLoss drops a deterministic fraction of a link's packets.
	KindLinkLoss = "link-loss"
	// KindLinkPartition takes a link hard down (duration × severity).
	KindLinkPartition = "link-partition"
	// KindLinkFlap alternates a link down/up with the event period.
	KindLinkFlap = "link-flap"
	// KindSensorCrash force-fails a sensor; the product's own restart
	// policy (if any) governs recovery.
	KindSensorCrash = "sensor-crash"
	// KindSensorHang wedges a sensor, deaf to its restart timer, until
	// the event window ends (duration × severity).
	KindSensorHang = "sensor-hang"
	// KindSensorSlow derates a sensor's processing speed for the window.
	KindSensorSlow = "sensor-slow"
	// KindAnalyzerStall pauses an analyzer's correlation for the window
	// (duration × severity).
	KindAnalyzerStall = "analyzer-stall"
	// KindAlertLoss severs the sensor→analyzer alert path for the window
	// (duration × severity).
	KindAlertLoss = "alert-loss"
	// KindMgmtOutage severs the monitor→console management channel for
	// the window (duration × severity).
	KindMgmtOutage = "mgmt-outage"
)

// knownKinds lists every kind, with whether it needs a link target, a
// sensor target, an analyzer target, and a duration.
var knownKinds = map[string]struct {
	needsLink, needsSensor, needsAnalyzer, needsDuration bool
}{
	KindLinkDegrade:   {needsLink: true, needsDuration: true},
	KindLinkLoss:      {needsLink: true, needsDuration: true},
	KindLinkPartition: {needsLink: true, needsDuration: true},
	KindLinkFlap:      {needsLink: true, needsDuration: true},
	KindSensorCrash:   {needsSensor: true},
	KindSensorHang:    {needsSensor: true, needsDuration: true},
	KindSensorSlow:    {needsSensor: true, needsDuration: true},
	KindAnalyzerStall: {needsAnalyzer: true, needsDuration: true},
	KindAlertLoss:     {needsDuration: true},
	KindMgmtOutage:    {needsDuration: true},
}

// Kinds returns every fault kind, sorted.
func Kinds() []string {
	out := make([]string, 0, len(knownKinds))
	for k := range knownKinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Duration is a time.Duration that (un)marshals as a Go duration string
// ("1.5s", "250ms") so scenario files stay human-editable.
type Duration time.Duration

// UnmarshalJSON parses either a duration string or bare nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("faults: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("faults: duration must be a string like \"500ms\" or nanoseconds: %s", b)
	}
	*d = Duration(n)
	return nil
}

// MarshalJSON renders the duration string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Std converts to time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Event is one declarative fault: at offset At from the injection
// origin, apply Kind to Target with the given baseline Severity; for
// windowed kinds the fault clears after Duration (scaled by the run's
// effective severity).
type Event struct {
	// At is the activation offset from the injection origin.
	At Duration `json:"at"`
	// Duration is the active window for windowed kinds.
	Duration Duration `json:"duration,omitempty"`
	// Kind names the fault (see Kinds).
	Kind string `json:"kind"`
	// Target addresses the component: "link:<name>" (span, lan-trunk,
	// ext-trunk), "sensor:<i>" or "sensor:*", "analyzer:<i>" or
	// "analyzer:*", or empty for IDS-wide kinds (alert-loss,
	// mgmt-outage).
	Target string `json:"target,omitempty"`
	// Severity is the event's baseline intensity in [0,1] (default 1);
	// the sweep multiplies it by the run's severity knob.
	Severity float64 `json:"severity,omitempty"`
	// Period is the flap cycle length for link-flap (default 2s).
	Period Duration `json:"period,omitempty"`
}

// Scenario is a named, ordered composition of fault events plus the
// resilience posture the run should adopt.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Resilience switches on the IDS self-healing layer (heartbeat
	// health tracking, rerouting, bounded retry spooling) for the run.
	Resilience bool    `json:"resilience,omitempty"`
	Events     []Event `json:"events"`
}

// Empty reports whether the scenario injects nothing (the determinism
// guard's configuration).
func (s *Scenario) Empty() bool { return s == nil || len(s.Events) == 0 }

// Validate checks every event against the kind table: known kind,
// plausible target shape, severity in [0,1], durations present where the
// kind needs one. All misconfiguration is caught here, at load time,
// never mid-simulation.
func (s *Scenario) Validate() error {
	if s == nil {
		return nil
	}
	for i, ev := range s.Events {
		spec, ok := knownKinds[ev.Kind]
		if !ok {
			return fmt.Errorf("faults: %s event %d: unknown kind %q (known: %s)",
				s.Name, i, ev.Kind, strings.Join(Kinds(), ", "))
		}
		if ev.At < 0 {
			return fmt.Errorf("faults: %s event %d (%s): negative offset %v", s.Name, i, ev.Kind, ev.At.Std())
		}
		if ev.Severity < 0 || ev.Severity > 1 {
			return fmt.Errorf("faults: %s event %d (%s): severity %v outside [0,1]", s.Name, i, ev.Kind, ev.Severity)
		}
		if spec.needsDuration && ev.Duration <= 0 {
			return fmt.Errorf("faults: %s event %d (%s): needs a positive duration", s.Name, i, ev.Kind)
		}
		switch {
		case spec.needsLink:
			if !strings.HasPrefix(ev.Target, "link:") {
				return fmt.Errorf("faults: %s event %d (%s): target %q must be link:<name>", s.Name, i, ev.Kind, ev.Target)
			}
		case spec.needsSensor:
			if !strings.HasPrefix(ev.Target, "sensor:") {
				return fmt.Errorf("faults: %s event %d (%s): target %q must be sensor:<i> or sensor:*", s.Name, i, ev.Kind, ev.Target)
			}
		case spec.needsAnalyzer:
			if !strings.HasPrefix(ev.Target, "analyzer:") {
				return fmt.Errorf("faults: %s event %d (%s): target %q must be analyzer:<i> or analyzer:*", s.Name, i, ev.Kind, ev.Target)
			}
		default:
			if ev.Target != "" && ev.Target != "mgmt" && ev.Target != "ids" {
				return fmt.Errorf("faults: %s event %d (%s): unexpected target %q", s.Name, i, ev.Kind, ev.Target)
			}
		}
		if ev.Kind == KindLinkFlap && ev.Period < 0 {
			return fmt.Errorf("faults: %s event %d: negative flap period", s.Name, i)
		}
	}
	return nil
}

// Parse decodes and validates a scenario from JSON. The input must hold
// exactly one JSON object; only whitespace may follow it.
func Parse(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("faults: bad scenario: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("faults: bad scenario: trailing data after the object")
	}
	if s.Name == "" {
		return nil, fmt.Errorf("faults: scenario needs a name")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and validates a scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("faults: %s: %w", path, err)
	}
	return s, nil
}
