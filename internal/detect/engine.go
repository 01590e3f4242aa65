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
	// Signature engines ignore it. What an engine learns is its
	// Learner profile, which an IDS trains once for all its sensors.
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
// phase — stream reassembly, suppression, thresholds, alert assembly —
// which still runs per packet at that packet's own inspection time. The
// contract that keeps batching invisible: PrescanBatch must not mutate
// engine state, and InspectPrescanned(p, now, i) must return exactly
// Inspect(p, now) when i's memoized payload is p's. Batch boundaries
// therefore cannot change alert content, ordering, suppression,
// thresholds or flow tails. A reassembling engine prescans each payload
// alone and scans only the seam where a flow's tail meets the payload
// at inspection time (DESIGN §12.3).
type Prescanning interface {
	Engine
	// PrescanBatch scans the payload batch, memoizing per-payload match
	// sets keyed by position. It reports false — scanning nothing — when
	// the engine has no content scan to batch (a hybrid whose signature
	// child cannot prescan); the caller then falls back to Inspect.
	PrescanBatch(payloads [][]byte) bool
	// InspectPrescanned is Inspect with the content scan replaced by the
	// idx-th memoized prescan result.
	InspectPrescanned(p *packet.Packet, now time.Duration, idx int) []Alert
}

// ScanSharer is the optional capability of an engine that derives
// something from payload bytes which a ScanMemo can remember: a
// signature engine's match sets, an anomaly engine's entropies.
type ScanSharer interface {
	// ShareScans makes the engine derive payload features through memo,
	// which other engines on the same goroutine may share.
	ShareScans(memo *ScanMemo)
}

// Learner is the optional capability of an engine that learns: all it
// learns is one Profile, which other engines of the same kind can read
// in place of their own. An IDS uses it to train one profile for all
// its sensors; an engine that learns must implement it, since the IDS
// trains nothing else.
type Learner interface {
	Engine
	// Profile returns the baseline the engine reads and Train folds
	// into; nil if the engine learns nothing.
	Profile() *Profile
	// ReadProfile makes the engine read pr in place of its own baseline.
	// Call it before the engine trains or inspects.
	ReadProfile(pr *Profile)
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
	// H = Σ −(c/n)·log2(c/n) = (n·log2 n − Σ c·log2 c)/n, so counts
	// below the table's end cost no Log2. Subtracting before dividing
	// keeps a one-symbol payload at exactly 0.
	var sum float64
	for _, c := range counts {
		sum += xlog2x(c)
	}
	return (xlog2x(len(data)) - sum) / float64(len(data))
}

// xlog2xTable holds c·log2 c for the counts a packet payload reaches
// (0·log2 0 is taken as 0).
var xlog2xTable = func() (t [2048]float64) {
	for c := 2; c < len(t); c++ {
		t[c] = float64(c) * math.Log2(float64(c))
	}
	return t
}()

// xlog2x returns c·log2 c, from the table when c is in it.
func xlog2x(c int) float64 {
	if c < len(xlog2xTable) {
		return xlog2xTable[c]
	}
	return float64(c) * math.Log2(float64(c))
}
