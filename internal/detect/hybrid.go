package detect

import (
	"time"

	"repro/internal/packet"
)

// HybridMode selects how a hybrid engine composes its children, matching
// Section 2.1: "A hybrid IDS uses both technologies either in series or
// in parallel."
type HybridMode int

// Hybrid composition modes.
const (
	// HybridParallel runs both engines on every packet and unions alerts.
	HybridParallel HybridMode = iota
	// HybridSerial runs the signature engine first and consults the
	// anomaly engine only when no signature fired — cheaper, but serial
	// composition can miss anomalies inside signature-quiet packets that
	// follow a signature hit.
	HybridSerial
)

// String names the mode.
func (m HybridMode) String() string {
	if m == HybridSerial {
		return "serial"
	}
	return "parallel"
}

// HybridEngine composes a signature and an anomaly engine.
type HybridEngine struct {
	sig  Engine
	anom Engine
	mode HybridMode
	// tags maps each child's name to its tagged form, built once so
	// tagging an alert allocates nothing.
	tags map[string]string
}

// NewHybridEngine composes the two engines. Typically sig is a
// *SignatureEngine and anom an *AnomalyEngine, but any pair works (the
// ablation benches exploit this).
func NewHybridEngine(sig, anom Engine, mode HybridMode) *HybridEngine {
	e := &HybridEngine{sig: sig, anom: anom, mode: mode, tags: map[string]string{}}
	for _, child := range []Engine{sig, anom} {
		e.tags[child.Name()] = e.Name() + "/" + child.Name()
	}
	return e
}

// Name implements Engine.
func (e *HybridEngine) Name() string { return "hybrid-" + e.mode.String() }

// Mechanism implements Engine.
func (e *HybridEngine) Mechanism() Mechanism { return MechanismHybrid }

// Train implements Engine: both children learn.
func (e *HybridEngine) Train(p *packet.Packet, now time.Duration) {
	e.sig.Train(p, now)
	e.anom.Train(p, now)
}

// SetSensitivity implements Engine: propagates to both children.
func (e *HybridEngine) SetSensitivity(s float64) error {
	if err := e.sig.SetSensitivity(s); err != nil {
		return err
	}
	return e.anom.SetSensitivity(s)
}

// CostPerPacket implements Engine. Parallel pays both costs; serial
// always pays the signature cost and models the average anomaly follow-up
// as half (alert-triggering packets skip it).
func (e *HybridEngine) CostPerPacket(p *packet.Packet) time.Duration {
	if e.mode == HybridParallel {
		return e.sig.CostPerPacket(p) + e.anom.CostPerPacket(p)
	}
	return e.sig.CostPerPacket(p) + e.anom.CostPerPacket(p)/2
}

// Inspect implements Engine.
func (e *HybridEngine) Inspect(p *packet.Packet, now time.Duration) []Alert {
	sigAlerts := e.sig.Inspect(p, now)
	if e.mode == HybridSerial && len(sigAlerts) > 0 {
		return e.tag(sigAlerts)
	}
	return e.tag(append(sigAlerts, e.anom.Inspect(p, now)...))
}

// PrescanBatch implements Prescanning by delegating the content-scan
// phase to the signature child (the anomaly child inspects headers and
// statistics, not payload patterns). False when the child cannot
// prescan.
func (e *HybridEngine) PrescanBatch(payloads [][]byte) bool {
	ps, ok := e.sig.(Prescanning)
	return ok && ps.PrescanBatch(payloads)
}

// ShareScans implements Prescanning for the signature child.
func (e *HybridEngine) ShareScans(memo *ScanMemo) {
	if ps, ok := e.sig.(Prescanning); ok {
		ps.ShareScans(memo)
	}
}

// Profile implements Learner: the anomaly child's baseline, or nil when
// that child learns nothing. An IDS trains only this profile, so the
// signature child must learn nothing.
func (e *HybridEngine) Profile() *Profile {
	if l, ok := e.anom.(Learner); ok {
		return l.Profile()
	}
	return nil
}

// ReadProfile implements Learner for the anomaly child.
func (e *HybridEngine) ReadProfile(pr *Profile) {
	if l, ok := e.anom.(Learner); ok {
		l.ReadProfile(pr)
	}
}

// InspectPrescanned implements Prescanning, composing exactly as Inspect
// does but feeding the signature child its memoized match set.
func (e *HybridEngine) InspectPrescanned(p *packet.Packet, now time.Duration, idx int) []Alert {
	ps, ok := e.sig.(Prescanning)
	if !ok {
		return e.Inspect(p, now)
	}
	sigAlerts := ps.InspectPrescanned(p, now, idx)
	if e.mode == HybridSerial && len(sigAlerts) > 0 {
		return e.tag(sigAlerts)
	}
	return e.tag(append(sigAlerts, e.anom.Inspect(p, now)...))
}

// tag stamps the hybrid's name on child alerts so monitors attribute them
// to the composed engine.
func (e *HybridEngine) tag(alerts []Alert) []Alert {
	for i := range alerts {
		tagged, ok := e.tags[alerts[i].Engine]
		if !ok {
			tagged = e.Name() + "/" + alerts[i].Engine
		}
		alerts[i].Engine = tagged
	}
	return alerts
}
