package ids

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/detect"
)

// maxSampleAlerts bounds the per-incident alert evidence retained.
const maxSampleAlerts = 16

// EvidenceBundle is the forensic package for one incident — the Evidence
// Collection performance capability: the incident record, a sample of
// the contributing alerts, and (when session recording is enabled and
// captured the flow) the recorded traffic. No command exports bundles:
// it is the extension EXPERIMENTS.md describes, pinned by
// TestEvidenceBundleCollectsAlertsAndRecording.
type EvidenceBundle struct {
	Incident  *ReportedIncident
	Alerts    []detect.Alert
	Recording *SessionRecording
}

// Evidence assembles the bundle for a reported incident.
func (s *IDS) Evidence(inc *ReportedIncident) *EvidenceBundle {
	b := &EvidenceBundle{Incident: inc, Alerts: inc.sampleAlerts}
	if s.recorder != nil {
		for _, a := range inc.sampleAlerts {
			if rec := s.Playback(a.Flow); rec != nil {
				b.Recording = rec
				break
			}
		}
	}
	return b
}

// WriteJSON serializes the bundle for hand-off (chain-of-custody export).
func (b *EvidenceBundle) WriteJSON(w io.Writer) error {
	type alertJSON struct {
		AtNs      int64   `json:"at_ns"`
		Technique string  `json:"technique"`
		Severity  float64 `json:"severity"`
		Attacker  string  `json:"attacker"`
		Victim    string  `json:"victim"`
		Reason    string  `json:"reason"`
		Engine    string  `json:"engine"`
	}
	type packetJSON struct {
		Flow    string `json:"flow"`
		Len     int    `json:"len"`
		Flags   string `json:"flags,omitempty"`
		Payload []byte `json:"payload,omitempty"`
	}
	out := struct {
		Technique  string       `json:"technique"`
		Attacker   string       `json:"attacker"`
		Victim     string       `json:"victim"`
		Severity   float64      `json:"severity"`
		FirstNs    int64        `json:"first_alert_ns"`
		LastNs     int64        `json:"last_alert_ns"`
		AlertCount int          `json:"alert_count"`
		Engines    []string     `json:"engines"`
		Alerts     []alertJSON  `json:"alerts"`
		Packets    []packetJSON `json:"recorded_packets,omitempty"`
		Truncated  bool         `json:"recording_truncated,omitempty"`
	}{
		Technique: b.Incident.Technique,
		Attacker:  b.Incident.Attacker.String(),
		Victim:    b.Incident.Victim.String(),
		Severity:  b.Incident.Severity,
		FirstNs:   int64(b.Incident.FirstAlert), LastNs: int64(b.Incident.LastAlert),
		AlertCount: b.Incident.AlertCount,
		Engines:    b.Incident.Engines,
	}
	for _, a := range b.Alerts {
		out.Alerts = append(out.Alerts, alertJSON{
			AtNs: int64(a.At), Technique: a.Technique, Severity: a.Severity,
			Attacker: a.Attacker.String(), Victim: a.Victim.String(),
			Reason: a.Reason, Engine: a.Engine,
		})
	}
	if b.Recording != nil {
		for _, p := range b.Recording.Packets {
			pj := packetJSON{Flow: p.Key().String(), Len: p.WireLen(), Payload: p.Payload}
			if p.Proto != 0 {
				pj.Flags = p.Flags.String()
			}
			out.Packets = append(out.Packets, pj)
		}
		out.Truncated = b.Recording.Truncated
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Summary renders a one-paragraph evidence synopsis for the report.
func (b *EvidenceBundle) Summary() string {
	rec := "no session recording"
	if b.Recording != nil {
		rec = fmt.Sprintf("%d packets (%d bytes) recorded", len(b.Recording.Packets), b.Recording.Bytes)
	}
	window := time.Duration(b.Incident.LastAlert - b.Incident.FirstAlert)
	return fmt.Sprintf("%s %v->%v: %d alerts over %v from %v; %s",
		b.Incident.Technique, b.Incident.Attacker, b.Incident.Victim,
		b.Incident.AlertCount, window, b.Incident.Engines, rec)
}
