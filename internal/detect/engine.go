package detect

import (
	"fmt"
	"math"
	"time"

	"repro/internal/packet"
)

// Alert is one detection event an engine raises. Alerts flow from sensors
// to analyzers to the monitor (Figures 1–2); the measurement harness
// matches them against ground-truth incidents to compute the Figure-3
// error ratios.
type Alert struct {
	// At is the virtual time the engine raised the alert.
	At time.Duration
	// Technique is the engine's classification of the suspected attack.
	Technique string
	// Severity in [0,1]; analyzers may rescale during second-order
	// analysis.
	Severity float64
	// Attacker and Victim are the engine's best attribution.
	Attacker, Victim packet.Addr
	// Flow is the triggering flow.
	Flow packet.FlowKey
	// Reason is a human-readable cause ("signature phf-cgi matched").
	Reason string
	// Engine names the raising engine.
	Engine string
}

// String renders a one-line summary.
func (a Alert) String() string {
	return fmt.Sprintf("[%v] %s sev=%.2f %v->%v (%s: %s)",
		a.At, a.Technique, a.Severity, a.Attacker, a.Victim, a.Engine, a.Reason)
}

// Engine is a detection mechanism: it inspects packets and raises alerts.
// Engines also report a modeled per-packet processing cost so products can
// translate engine choice into sensor capacity — the coupling behind the
// paper's System Throughput and Operational Performance Impact metrics.
type Engine interface {
	// Name identifies the engine ("signature", "anomaly", ...).
	Name() string
	// Mechanism returns the Section-2.1 class of the engine. No command
	// reads it: TestProductsAreCharacteristicallyDifferent uses it to
	// check that the field spans signature, anomaly and hybrid engines.
	Mechanism() Mechanism
	// Train feeds one known-benign packet to behaviour-learning engines.
	// Signature engines ignore it.
	Train(p *packet.Packet, now time.Duration)
	// Inspect analyzes one packet, returning zero or more alerts.
	Inspect(p *packet.Packet, now time.Duration) []Alert
	// SetSensitivity adjusts the detection threshold; s in [0,1], where
	// higher values detect more (more Type I, fewer Type II errors).
	SetSensitivity(s float64) error
	// CostPerPacket models the processing cost of inspecting p.
	CostPerPacket(p *packet.Packet) time.Duration
}

// Prescanning is the optional engine capability behind sensor-side
// batched inspection. An engine implementing it can split inspection in
// two: a pure content-scan phase that runs over a whole batch of queued
// payloads at once (one interleaved automaton pass), and the stateful
// phase — suppression, thresholds, alert assembly — which still runs per
// packet at that packet's own inspection time. The contract that keeps
// batching invisible: PrescanBatch must not mutate engine state, and
// InspectPrescanned(p, now, i) must return exactly Inspect(p, now) when
// i's memoized payload is p's. Batch boundaries therefore cannot change
// alert content, ordering, suppression, or threshold behaviour.
type Prescanning interface {
	Engine
	// PrescanBatch scans the payload batch, memoizing per-payload match
	// sets keyed by position. It reports false — scanning nothing — when
	// prescanning is currently unsafe (e.g. stream reassembly makes scan
	// input stateful); the caller then falls back to Inspect.
	PrescanBatch(payloads [][]byte) bool
	// InspectPrescanned is Inspect with the content scan replaced by the
	// idx-th memoized prescan result.
	InspectPrescanned(p *packet.Packet, now time.Duration, idx int) []Alert
}

// Mechanism is the detection-mechanism taxonomy of Section 2.1.
type Mechanism int

// Detection mechanisms.
const (
	MechanismSignature Mechanism = iota
	MechanismAnomaly
	MechanismHybrid
)

// String names the mechanism as the paper does.
func (m Mechanism) String() string {
	switch m {
	case MechanismSignature:
		return "signature-based"
	case MechanismAnomaly:
		return "anomaly-based"
	case MechanismHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("mechanism(%d)", int(m))
	}
}

// clampSensitivity validates and stores a sensitivity setting.
func clampSensitivity(s float64) (float64, error) {
	if math.IsNaN(s) || s < 0 || s > 1 {
		return 0, fmt.Errorf("detect: sensitivity %v outside [0,1]", s)
	}
	return s, nil
}

// Entropy returns the Shannon entropy of data in bits per byte (0..8).
// Anomaly engines profile it to spot encrypted/encoded exfiltration such
// as the DNS-tunnel scenario.
func Entropy(data []byte) float64 {
	if len(data) == 0 {
		return 0
	}
	var counts [256]int
	for _, b := range data {
		counts[b]++
	}
	n := float64(len(data))
	var h float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}
