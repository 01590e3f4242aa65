package ids

import (
	"fmt"
	"time"

	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// ReportedIncident is the analyzer's correlated view of one threat: all
// alerts for the same (attacker, victim, technique) within the
// correlation window, reported to the monitor on first alert (timeliness
// is measured against this report time).
type ReportedIncident struct {
	// Key fields.
	Attacker, Victim packet.Addr
	Technique        string
	// Severity is the maximum alert severity seen.
	Severity float64
	// FirstAlert/LastAlert bound the alert activity.
	FirstAlert, LastAlert time.Duration
	// ReportedAt is when the monitor learned of the incident.
	ReportedAt time.Duration
	// AlertCount is how many alerts were folded in.
	AlertCount int
	// Engines lists contributing engine names.
	Engines []string
	// sampleAlerts retains the first alerts for evidence (capped).
	sampleAlerts []detect.Alert
}

// String renders a one-line summary.
func (r *ReportedIncident) String() string {
	return fmt.Sprintf("%s %v->%v sev=%.2f alerts=%d reported=%v",
		r.Technique, r.Attacker, r.Victim, r.Severity, r.AlertCount, r.ReportedAt)
}

// Analyzer is the analysis subprocess: it performs first-order severity
// assessment and second-order correlation (scope/frequency) by folding
// alert streams into incidents, and it accounts for the historical data
// storage the Data Storage metric measures.
type Analyzer struct {
	sim    *simtime.Sim
	id     int
	window time.Duration

	open map[string]*ReportedIncident

	monitor *Monitor
	// storagePerAlert models retained context bytes per alert.
	storagePerAlert int

	// AlertsSeen counts all alerts submitted.
	AlertsSeen uint64
	// StorageBytes models accumulated historical data.
	StorageBytes uint64

	// Stall state. While stalled the analyzer folds nothing: alerts wait
	// in a bounded retry spool (resilience on) or are counted lost
	// (resilience off). The spool is the only buffering on the
	// analyzer→monitor path and it is always bounded: overload shows up
	// in DroppedAlerts and the ids.analyzer.alerts_dropped counter, never
	// as unbounded memory growth.
	stalled bool
	spool   retrySpool[detect.Alert]

	// DroppedAlerts counts alerts lost at the analyzer boundary: raised
	// while stalled with the spool off or full.
	DroppedAlerts uint64

	cAlerts  *obs.Counter
	cDropped *obs.Counter // shared ids.analyzer.alerts_dropped
}

// NewAnalyzer builds one analyzer reporting to monitor.
func NewAnalyzer(sim *simtime.Sim, id int, window time.Duration, storagePerAlert int, monitor *Monitor) *Analyzer {
	return &Analyzer{
		sim: sim, id: id, window: window,
		open:            make(map[string]*ReportedIncident),
		monitor:         monitor,
		storagePerAlert: storagePerAlert,
	}
}

func incidentKey(al detect.Alert) string {
	return fmt.Sprintf("%d/%d/%s", al.Attacker, al.Victim, al.Technique)
}

// SetStalled pauses (true) or resumes (false) incident folding — the
// analyzer-stall fault. Spooled alerts fold at the spool's next retry.
func (a *Analyzer) SetStalled(stalled bool) { a.stalled = stalled }

// Submit folds a batch of alerts into open incidents, creating and
// reporting new incidents as needed. A stalled analyzer spools each
// alert instead, or accounts its loss.
func (a *Analyzer) Submit(alerts []detect.Alert) {
	for _, al := range alerts {
		if !a.stalled {
			a.fold(al)
		} else if !a.spool.add(al) {
			a.DroppedAlerts++
			a.cDropped.Inc()
		}
	}
}

// fold is the actual correlation pass, one alert at a time.
func (a *Analyzer) fold(al detect.Alert) {
	now := a.sim.Now()
	a.AlertsSeen++
	a.cAlerts.Inc()
	a.StorageBytes += uint64(a.storagePerAlert)
	k := incidentKey(al)
	inc, ok := a.open[k]
	if ok && now-inc.LastAlert > a.window {
		// Stale: close it out and start fresh.
		delete(a.open, k)
		ok = false
	}
	if !ok {
		inc = &ReportedIncident{
			Attacker: al.Attacker, Victim: al.Victim, Technique: al.Technique,
			Severity: al.Severity, FirstAlert: al.At, LastAlert: al.At,
			ReportedAt: now, AlertCount: 1, Engines: []string{al.Engine},
			sampleAlerts: []detect.Alert{al},
		}
		a.open[k] = inc
		a.monitor.Report(inc)
		return
	}
	inc.AlertCount++
	if len(inc.sampleAlerts) < maxSampleAlerts {
		inc.sampleAlerts = append(inc.sampleAlerts, al)
	}
	if al.Severity > inc.Severity {
		inc.Severity = al.Severity
		// Escalation may cross the notification threshold.
		a.monitor.Escalate(inc)
	}
	if al.At > inc.LastAlert {
		inc.LastAlert = al.At
	}
	for _, e := range inc.Engines {
		if e == al.Engine {
			return
		}
	}
	inc.Engines = append(inc.Engines, al.Engine)
}

// Flush closes every open incident (end of run).
func (a *Analyzer) Flush() {
	a.open = make(map[string]*ReportedIncident)
}

// Monitor is the monitoring subprocess: the operator's view of the
// threat. It retains every reported incident and issues notifications
// when severity crosses policy.
type Monitor struct {
	sim *simtime.Sim
	// NotifyThreshold is the minimum severity for operator notification.
	NotifyThreshold float64

	// Incidents is every incident reported, in report order.
	Incidents []*ReportedIncident
	// Notifications records operator alerts.
	Notifications []Notification

	notified map[*ReportedIncident]bool
	// onNotify, when set (console attached), receives notified incidents
	// for automated response.
	onNotify func(inc *ReportedIncident)

	// Management-channel outage state. The operator-facing Notifications
	// record is unaffected (the monitor still knows); only the
	// monitor→console control channel is severed. Console deliveries
	// wait in a bounded retry spool (resilience on) or are counted lost.
	outage      bool
	mgmt        retrySpool[*ReportedIncident]
	MgmtDropped uint64 // console deliveries lost to the outage

	cIncidents, cNotifications, cMgmtDropped *obs.Counter
}

// Notification is one operator alert.
type Notification struct {
	At       time.Duration
	Incident *ReportedIncident
}

// NewMonitor builds the monitor.
func NewMonitor(sim *simtime.Sim, threshold float64) *Monitor {
	return &Monitor{sim: sim, NotifyThreshold: threshold, notified: make(map[*ReportedIncident]bool)}
}

// Report registers a new incident and notifies if warranted.
func (m *Monitor) Report(inc *ReportedIncident) {
	m.Incidents = append(m.Incidents, inc)
	m.cIncidents.Inc()
	m.maybeNotify(inc)
}

// Escalate re-evaluates notification after a severity increase.
func (m *Monitor) Escalate(inc *ReportedIncident) { m.maybeNotify(inc) }

func (m *Monitor) maybeNotify(inc *ReportedIncident) {
	if m.notified[inc] || inc.Severity < m.NotifyThreshold {
		return
	}
	m.notified[inc] = true
	m.cNotifications.Inc()
	m.Notifications = append(m.Notifications, Notification{At: m.sim.Now(), Incident: inc})
	m.dispatchConsole(inc)
}

// SetMgmtOutage severs (true) or restores (false) the monitor→console
// management channel. Spooled incidents reach the console at the
// spool's next retry.
func (m *Monitor) SetMgmtOutage(out bool) { m.outage = out }

// dispatchConsole drives the console hook through the management
// channel, spooling or accounting the loss during an outage.
func (m *Monitor) dispatchConsole(inc *ReportedIncident) {
	switch {
	case m.onNotify == nil: // no console attached
	case !m.outage:
		m.onNotify(inc)
	case !m.mgmt.add(inc):
		m.MgmtDropped++
		m.cMgmtDropped.Inc()
	}
}
